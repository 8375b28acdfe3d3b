package writepath

// Granted reports whether the ticket's bytes were admitted.
func (t *Ticket) Granted() bool { return t.state == ticketGranted }

// InflightClass returns the admitted-but-unburned bytes of one class.
func (a *Admission) InflightClass(c Class) int64 { return a.inflight[c] }
