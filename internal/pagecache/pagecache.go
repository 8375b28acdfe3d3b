// Package pagecache models the Linux page cache over a block device or RAID
// array: foreground reads and writes complete at memory-ish calibrated rates
// while a background flusher pushes dirty data to the backing store,
// consuming its real (virtual-time) bandwidth.
//
// ROS needs this in two places. The paper's ext4-on-RAID-5 baseline measures
// 1.2 GB/s reads and 1.0 GB/s writes on disks that raw-sum to ~1 GB/s —
// page-cache assisted. And OLFS buckets are UDF loop devices whose data path
// goes through the cache (only MV index I/O is direct, §5.2). The background
// flusher is what makes the §4.7 four-stream interference ablation real:
// flush traffic competes with parity generation and burn reads on the same
// array.
//
// Write-back happens when Linux would do it: when the oldest dirty chunk is
// one write-back interval old, when a flush segment's worth of data is dirty,
// or when Sync asks. A drain then writes everything dirty in ascending order,
// so a region filled by small sequential writes reaches a RAID backend as
// full stripes, each byte once. The interval is a strong sleep: Env.Run does
// not return while data is dirty, so a simulation that has run to quiescence
// has an array that holds what the cache holds.
package pagecache

import (
	"fmt"
	"slices"
	"time"

	"ros/internal/chunk"
	"ros/internal/obs"
	"ros/internal/sim"
)

// Backend is the backing store. ReadAt fills all of buf or returns an error.
// WriteFrom stores the cache's bytes [off, off+n) at off, pulling them from
// its chunk store: it copies or borrows (chunk.Store.Lend) every byte before
// it first yields, so the flusher can clear the dirty marks before the call
// and a write that lands while the backend is busy changes nothing it writes
// (the cache copies a lent chunk before writing it). raid.Array lends a full
// stripe's columns to its members and copies partial stripes; a blockdev.Disk
// adopts everything.
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error
	Size() int64
}

// Rates are the foreground (cache-hit) service rates.
type Rates struct {
	Read  float64 // bytes/second
	Write float64 // bytes/second
	PerOp time.Duration
}

// Ext4Rates is calibrated to the paper's §5.3 baseline: "The throughput of
// ext4 on the underlying RAID-5 volume is 1.2 GB/s for read and 1.0 GB/s for
// write."
func Ext4Rates() Rates {
	return Rates{Read: 1.2e9, Write: 1.0e9, PerOp: 10 * time.Microsecond}
}

// chunkSize is the write-back granularity: one chunk of the store.
const chunkSize = chunk.Size

const (
	// writebackInterval is how old a dirty chunk may get before the flusher
	// writes it back (Linux's dirty_writeback_centisecs, 5 s).
	writebackInterval = 5 * time.Second
	// flushSegment bounds one backend write; this much dirty data starts
	// write-back without waiting for the interval.
	flushSegment = 8 << 20
)

// Volume is a cached view of a backend. All data lives in a sparse in-memory
// store (the "cache", which in this model never evicts — ROS buffers are
// sized for that); writes are mirrored asynchronously to the backend by a
// flusher process.
type Volume struct {
	env     *sim.Env
	backend Backend
	rates   Rates
	store   chunk.Store
	size    int64

	// Write-back state. A chunk is dirty from the write that marks it until the
	// flusher hands it to a backend write; a write that lands after that marks
	// it again. flushIdle is set while nothing is dirty and no backend write is
	// in flight.
	dirty      map[int64]bool
	oldest     time.Duration // when the first chunk no drain has taken was marked; -1 if none
	flusher    *sim.Daemon   // woken to look at the triggers
	timer      *sim.Daemon   // sleeps towards oldest + writebackInterval while timerArmed
	timerWait  time.Duration // the sleep the armed timer takes
	flushIdle  *sim.Signal
	syncing    int     // processes waiting in Sync
	timerArmed bool    // the timer is out
	batch      []int64 // the chunks a drain works through, reused from drain to drain
	closed     bool

	// Metric handles, nil (and inert) until AttachObs.
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	bytesFlushed *obs.Counter
	dirtyGauge   *obs.Gauge
}

// AttachObs connects the volume to a metrics registry under the given name
// prefix (e.g. "buffer"): <prefix>.bytes_read / bytes_written / bytes_flushed
// counters, plus a <prefix>.dirty_chunks gauge tracking the flush backlog.
func (v *Volume) AttachObs(r *obs.Registry, prefix string) {
	v.bytesRead = r.Counter(prefix + ".bytes_read")
	v.bytesWritten = r.Counter(prefix + ".bytes_written")
	v.bytesFlushed = r.Counter(prefix + ".bytes_flushed")
	v.dirtyGauge = r.Gauge(prefix + ".dirty_chunks")
}

// New creates a cached volume over backend. Its flusher runs when a
// write-back trigger may hold, and parks nothing in between.
func New(env *sim.Env, backend Backend, rates Rates) *Volume {
	v := &Volume{
		env:       env,
		backend:   backend,
		rates:     rates,
		size:      backend.Size(),
		dirty:     make(map[int64]bool),
		oldest:    -1,
		flushIdle: sim.NewSignal(env),
	}
	v.flusher = sim.NewDaemon(env, "pagecache-flusher", v.flush)
	v.timer = sim.NewDaemon(env, "pagecache-writeback-timer", v.writebackTimer)
	v.flushIdle.Broadcast()
	return v
}

// Size implements Backend.
func (v *Volume) Size() int64 { return v.size }

// Backend returns the backing store.
func (v *Volume) Backend() Backend { return v.backend }

// charge checks that [off, off+n) lies in the volume and sleeps for an
// access of n bytes at rate bytes/second.
func (v *Volume) charge(p *sim.Proc, off, n int64, rate float64) error {
	if off < 0 || off+n > v.size {
		return errRange(off, n, v.size)
	}
	t := v.rates.PerOp
	if rate > 0 {
		t += time.Duration(float64(n) / rate * float64(time.Second))
	}
	p.Sleep(t)
	return nil
}

// ReadAt serves from cache at the calibrated read rate.
func (v *Volume) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if err := v.charge(p, off, int64(len(buf)), v.rates.Read); err != nil {
		return err
	}
	v.store.ReadAt(buf, off)
	v.bytesRead.Add(int64(len(buf)))
	return nil
}

// Lend is ReadAt without the copy: it charges the same read of [off, off+n)
// and appends read-only pieces of the cached bytes to dst
// (chunk.Store.Lend). A burn lends its bucket slot to the disc this way.
func (v *Volume) Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error) {
	if err := v.charge(p, off, n, v.rates.Read); err != nil {
		return dst, err
	}
	dst = v.store.Lend(dst, off, n)
	v.bytesRead.Add(n)
	return dst, nil
}

// WriteAt stores into cache at the calibrated write rate and marks the
// chunks it touches dirty for write-back.
func (v *Volume) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	if err := v.charge(p, off, int64(len(buf)), v.rates.Write); err != nil {
		return err
	}
	v.store.WriteAt(buf, off)
	v.markDirty(p, off, int64(len(buf)))
	return nil
}

// Adopt is WriteAt for pieces lent by another store: it charges the same
// write of their total length at off and marks the chunks dirty, but keeps
// whole chunks by reference (chunk.Store.Adopt). A cache fill adopts what a
// disc lends.
func (v *Volume) Adopt(p *sim.Proc, off int64, pieces [][]byte) error {
	n := int64(0)
	for _, pc := range pieces {
		n += int64(len(pc))
	}
	if err := v.charge(p, off, n, v.rates.Write); err != nil {
		return err
	}
	v.store.Adopt(off, pieces)
	v.markDirty(p, off, n)
	return nil
}

// markDirty counts n bytes written at off and marks their chunks dirty,
// waking the flusher when a segment's worth is dirty.
func (v *Volume) markDirty(p *sim.Proc, off, n int64) {
	v.bytesWritten.Add(n)
	first := off / chunkSize
	last := (off + n - 1) / chunkSize
	for ci := first; ci <= last; ci++ {
		if !v.dirty[ci] {
			v.dirty[ci] = true
			v.flushIdle.Clear()
			if v.oldest < 0 {
				v.oldest = p.Now()
			}
		}
	}
	v.dirtyGauge.Set(int64(len(v.dirty)))
	if len(v.dirty)*chunkSize >= flushSegment {
		v.flusher.Wake()
	}
	v.armTimer(p.Now())
}

// armTimer has the flusher woken when the oldest dirty chunk comes of age.
// One timer is out at a time; it may have been set for a chunk a drain has
// since taken and so fire early, upon which the flusher arms the next.
func (v *Volume) armTimer(now time.Duration) {
	if v.timerArmed || v.oldest < 0 {
		return
	}
	v.timerArmed = true
	v.timerWait = v.oldest + writebackInterval - now
	v.timer.Wake()
}

// writebackTimer is the timer's body: sleep out the armed wait, then have the
// flusher look at the triggers.
func (v *Volume) writebackTimer(p *sim.Proc) {
	p.Sleep(v.timerWait)
	v.timerArmed = false
	v.flusher.Wake()
}

// due reports whether one of the write-back triggers holds.
func (v *Volume) due(now time.Duration) bool {
	if len(v.dirty) == 0 {
		return false
	}
	return v.syncing > 0 || v.closed ||
		len(v.dirty)*chunkSize >= flushSegment || now-v.oldest >= writebackInterval
}

// flush is the flusher's body: it writes dirty chunks back while a trigger
// holds, then arms the timer for what is left.
func (v *Volume) flush(p *sim.Proc) {
	for v.due(p.Now()) {
		// Everything dirty now, in ascending order. What is marked from here
		// on is the next drain's, and its age counts from then.
		batch := v.batch[:0]
		for c := range v.dirty {
			batch = append(batch, c)
		}
		slices.Sort(batch)
		v.batch = batch
		v.oldest = -1
		for i := 0; i < len(batch); {
			// One backend write per run of adjacent chunks, a segment at most.
			first, n := batch[i], 1
			for i+n < len(batch) && batch[i+n] == first+int64(n) && (n+1)*chunkSize <= flushSegment {
				n++
			}
			i += n
			start := first * chunkSize
			length := min(int64(n)*chunkSize, v.size-start)
			// The chunks are clean from here: the backend takes their bytes
			// before it first yields, and a write that lands while it is busy
			// marks them again.
			for c := first; c < first+int64(n); c++ {
				delete(v.dirty, c)
			}
			v.dirtyGauge.Set(int64(len(v.dirty)))
			// A failed write-back is not retried or reported: Sync has no
			// error path and the marks are gone, so the bytes live on only in
			// this never-evicting cache and the backend's copy is stale (the
			// ack-durability point, ROADMAP.md item 5(b)).
			_ = v.backend.WriteFrom(p, &v.store, start, length)
			v.bytesFlushed.Add(length)
		}
	}
	if len(v.dirty) == 0 {
		v.flushIdle.Broadcast()
		if v.closed {
			return
		}
	}
	v.armTimer(p.Now())
}

// Sync blocks until all dirty data has reached the backend, starting
// write-back at once if there is any.
func (v *Volume) Sync(p *sim.Proc) {
	if v.flushIdle.IsSet() {
		return
	}
	v.syncing++
	v.flusher.Wake()
	v.flushIdle.Wait(p)
	v.syncing--
}

// DirtyChunks returns the number of chunks awaiting flush.
func (v *Volume) DirtyChunks() int { return len(v.dirty) }

// Close has the flusher drain everything dirty now, whatever its age (call
// Sync first to wait for it).
func (v *Volume) Close() {
	v.closed = true
	v.flusher.Wake()
}

type rangeError struct {
	off  int64
	n    int64
	size int64
}

func errRange(off, n, size int64) error { return &rangeError{off, n, size} }

func (e *rangeError) Error() string {
	return fmt.Sprintf("pagecache: access out of range: off=%d len=%d size=%d", e.off, e.n, e.size)
}
