// Package writepath implements the class-aware admission control in front
// of the HDD write buffer.
//
// ROS's structural bottleneck is the optical tier: a 25 GB disc burns in
// ~675 s (Table 1/2), so sustained ingest above the burn rate must either
// fill the write buffer without bound or be shed explicitly. Admission is a
// token bucket over write-buffer bytes-in-flight with per-class
// (interactive/archival) reservations. Above a high-water mark new writes
// block on a bounded admission queue with deadline-aware shedding
// (ErrOverload); acked data is never dropped, and the queue drains in sched
// QoS-class order. The Controller's charge ledger follows each admitted
// byte from Admit through the bucket that absorbed it to the burn that
// returns it.
//
// Byte accounting is always on (it feeds the writepath.* gauges and the
// write-buffer-full alert rule); blocking admission engages only when
// AdmissionConfig.Enabled is set, so by default a full buffer still
// surfaces as bucket.ErrNoFreeSlot.
package writepath

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/sched"
)

// Errors returned by admission control.
var (
	// ErrOverload reports that a write was shed by admission control: the
	// write buffer is above its high-water mark and the write either found
	// the admission queue full, asked for more than the buffer can ever
	// grant, or timed out waiting. The data was not acked and not stored.
	ErrOverload = errors.New("writepath: write shed by admission control (write buffer overloaded)")
	// ErrCanceled reports that an admission wait was canceled by its
	// issuer before being granted.
	ErrCanceled = errors.New("writepath: admission wait canceled")
)

// Class partitions write traffic for admission accounting and queue drain
// order. It is deliberately coarser than sched.Class: admission throttles
// producers, the mechanical scheduler orders consumers.
type Class int

// The admission classes.
const (
	// Interactive is foreground client writes: a user is waiting for the
	// ack.
	Interactive Class = iota
	// Archival is bulk traffic: direct-mode ingest, cluster
	// re-replication, migration. It tolerates latency but must not be
	// starved (it gets a reserved buffer share).
	Archival
	// NumClasses is the number of admission classes.
	NumClasses
)

// String returns the metric-friendly class name.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Archival:
		return "archival"
	}
	return fmt.Sprintf("class%d", int(c))
}

// SchedClass maps an admission class onto the mechanical QoS class whose
// weight orders the admission-queue drain (interactive writes outrank bulk
// traffic exactly as interactive reads outrank burns).
func (c Class) SchedClass() sched.Class {
	if c == Interactive {
		return sched.Interactive
	}
	return sched.Burn
}

// AdmissionConfig tunes the token bucket over write-buffer bytes-in-flight.
// Zero fields take the documented defaults.
type AdmissionConfig struct {
	// Enabled turns on blocking admission and shedding. When false, byte
	// accounting still runs (gauges, alert rule, status) but writes are
	// never blocked or shed here.
	Enabled bool
	// CapacityBytes is the token-bucket capacity. olfs defaults it to the
	// write buffer's bucket-slot capacity (slots x disc capacity).
	CapacityBytes int64
	// MaxWait is the queue-wait deadline: a write still queued after
	// MaxWait is shed with ErrOverload (default 5 min; 0 keeps the
	// default, negative disables deadline shedding).
	MaxWait time.Duration
}

// The token bucket's fixed shape.
const (
	// highWater is the buffer fill fraction above which the bucket turns
	// congested: new writes (beyond class reservation floors) queue instead
	// of being granted.
	highWater = 0.90
	// lowWater is the fill fraction at which a congested bucket clears. The
	// gap is hysteresis: without it the boundary oscillates on every
	// grant/release pair.
	lowWater = 0.75
	// maxQueue bounds the admission queue; writes arriving beyond it are
	// shed immediately.
	maxQueue = 64
)

// reserve is the per-class guaranteed buffer share (fraction of
// CapacityBytes). A class is always admitted up to its floor, even while
// congested, so bulk traffic cannot lock interactive writes out of the
// buffer or vice versa.
var reserve = [NumClasses]float64{Interactive: 0.10, Archival: 0.05}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxWait == 0 {
		c.MaxWait = 5 * time.Minute
	}
	return c
}

// BatchConfig selects how many data images one burn task takes.
type BatchConfig struct {
	// SingleImage burns one data image (plus parity) per tray instead of a
	// full set of DataDiscs: one arm trip and spin-up per image. It is the
	// standing bench's sensitivity case for the burn drain rate.
	SingleImage bool
}

// Config is the write-path configuration carried by olfs.Config.Write and
// ros.Options.Write.
type Config struct {
	Admission AdmissionConfig
	Batch     BatchConfig
}
