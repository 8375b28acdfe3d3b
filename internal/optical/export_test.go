package optical

// Written returns the high-water mark of burned bytes (incl. track metadata
// zones).
func (d *Disc) Written() int64 { return d.written }
