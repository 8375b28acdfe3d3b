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
package pagecache

import (
	"fmt"
	"sort"
	"time"

	"ros/internal/obs"
	"ros/internal/sim"
)

// Backend is the backing store (same contract as udf.Backend, including its
// buffer-ownership rules: WriteAt copies buf before returning and does not
// retain it, ReadAt fills all of buf or returns an error). The flusher relies
// on the first to reuse one flush buffer for every backend write.
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
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

const chunkSize = 64 << 10

// Volume is a cached view of a backend. All data lives in a sparse in-memory
// store (the "cache", which in this model never evicts — ROS buffers are
// sized for that); writes are mirrored asynchronously to the backend by a
// flusher process.
type Volume struct {
	env     *sim.Env
	backend Backend
	rates   Rates
	chunks  map[int64][]byte
	size    int64

	dirty     map[int64]bool // chunk indices awaiting flush
	flushQ    *sim.Queue[int64]
	flushIdle *sim.Signal
	inflight  int

	// Stats. The fields double as the storage cells of the <prefix>.* obs
	// counters once AttachObs is called.
	BytesRead    int64
	BytesWritten int64
	BytesFlushed int64

	dirtyGauge *obs.Gauge // nil until AttachObs
}

// AttachObs connects the volume to a metrics registry under the given name
// prefix (e.g. "buffer"): <prefix>.bytes_read / bytes_written / bytes_flushed
// counters bound to the stats fields, plus a <prefix>.dirty_chunks gauge
// tracking the flush backlog.
func (v *Volume) AttachObs(r *obs.Registry, prefix string) {
	r.CounterAt(prefix+".bytes_read", &v.BytesRead)
	r.CounterAt(prefix+".bytes_written", &v.BytesWritten)
	r.CounterAt(prefix+".bytes_flushed", &v.BytesFlushed)
	v.dirtyGauge = r.Gauge(prefix + ".dirty_chunks")
}

// New creates a cached volume over backend and starts its flusher process.
func New(env *sim.Env, backend Backend, rates Rates) *Volume {
	v := &Volume{
		env:       env,
		backend:   backend,
		rates:     rates,
		chunks:    make(map[int64][]byte),
		size:      backend.Size(),
		dirty:     make(map[int64]bool),
		flushQ:    sim.NewQueue[int64](env),
		flushIdle: sim.NewSignal(env),
	}
	v.flushIdle.Broadcast()
	env.GoDaemon("pagecache-flusher", v.flusher)
	return v
}

// Size implements Backend.
func (v *Volume) Size() int64 { return v.size }

// Backend returns the backing store.
func (v *Volume) Backend() Backend { return v.backend }

// ReadAt serves from cache at the calibrated read rate.
func (v *Volume) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > v.size {
		return errRange(off, len(buf), v.size)
	}
	t := v.rates.PerOp
	if v.rates.Read > 0 {
		t += time.Duration(float64(len(buf)) / v.rates.Read * float64(time.Second))
	}
	p.Sleep(t)
	v.copyOut(buf, off)
	v.BytesRead += int64(len(buf))
	return nil
}

// WriteAt stores into cache at the calibrated write rate and queues the
// dirtied chunks for background flush.
func (v *Volume) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > v.size {
		return errRange(off, len(buf), v.size)
	}
	t := v.rates.PerOp
	if v.rates.Write > 0 {
		t += time.Duration(float64(len(buf)) / v.rates.Write * float64(time.Second))
	}
	p.Sleep(t)
	v.copyIn(buf, off)
	v.BytesWritten += int64(len(buf))
	first := off / chunkSize
	last := (off + int64(len(buf)) - 1) / chunkSize
	for ci := first; ci <= last; ci++ {
		if !v.dirty[ci] {
			v.dirty[ci] = true
			v.flushIdle.Clear()
			v.flushQ.Push(ci)
		}
	}
	v.dirtyGauge.Set(int64(len(v.dirty)))
	return nil
}

// flusher drains dirty chunks to the backend, coalescing adjacent chunks
// into one sequential backend write.
func (v *Volume) flusher(p *sim.Proc) {
	// The flusher is the only writer to the backend, one write at a time, so
	// it owns a single staging buffer that only ever grows (to at most seg).
	var flushBuf []byte
	for {
		ci, ok := v.flushQ.Pop(p)
		if !ok {
			return
		}
		// Coalesce: grab everything queued right now, sort, write runs.
		batch := []int64{ci}
		for {
			c, ok := v.flushQ.TryPop()
			if !ok {
				break
			}
			batch = append(batch, c)
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
		run := []int64{batch[0]}
		flushRun := func(run []int64) {
			start := run[0] * chunkSize
			length := int64(len(run)) * chunkSize
			if start+length > v.size {
				length = v.size - start
			}
			// Bounded segments keep the flush buffer small for huge runs.
			const seg = 8 << 20
			if want := minI64(length, seg); int64(len(flushBuf)) < want {
				flushBuf = make([]byte, want)
			}
			for done := int64(0); done < length; {
				n := minI64(seg, length-done)
				v.copyOut(flushBuf[:n], start+done)
				// Best effort: a failed backend is detected by Sync/scrub.
				_ = v.backend.WriteAt(p, flushBuf[:n], start+done)
				done += n
			}
			v.BytesFlushed += length
			for _, c := range run {
				delete(v.dirty, c)
			}
			v.dirtyGauge.Set(int64(len(v.dirty)))
		}
		for _, c := range batch[1:] {
			if c == run[len(run)-1]+1 {
				run = append(run, c)
				continue
			}
			flushRun(run)
			run = []int64{c}
		}
		flushRun(run)
		if len(v.dirty) == 0 && v.flushQ.Len() == 0 {
			v.flushIdle.Broadcast()
		}
	}
}

// Sync blocks until all dirty data has reached the backend.
func (v *Volume) Sync(p *sim.Proc) {
	v.flushIdle.Wait(p)
}

// DirtyChunks returns the number of chunks awaiting flush.
func (v *Volume) DirtyChunks() int { return len(v.dirty) }

// Close stops the flusher after draining (call Sync first for durability).
func (v *Volume) Close() { v.flushQ.Close() }

func (v *Volume) copyOut(buf []byte, off int64) {
	for n := 0; n < len(buf); {
		ci := (off + int64(n)) / chunkSize
		co := int((off + int64(n)) % chunkSize)
		run := chunkSize - co
		if run > len(buf)-n {
			run = len(buf) - n
		}
		if c, ok := v.chunks[ci]; ok {
			copy(buf[n:n+run], c[co:co+run])
		} else {
			clear(buf[n : n+run])
		}
		n += run
	}
}

func (v *Volume) copyIn(buf []byte, off int64) {
	for n := 0; n < len(buf); {
		ci := (off + int64(n)) / chunkSize
		co := int((off + int64(n)) % chunkSize)
		run := chunkSize - co
		if run > len(buf)-n {
			run = len(buf) - n
		}
		c, ok := v.chunks[ci]
		if !ok {
			if allZero(buf[n : n+run]) {
				// Writing zeros to a never-touched chunk: stay sparse. This
				// keeps parity streams over mostly-empty images from
				// materializing disc-sized allocations.
				n += run
				continue
			}
			c = make([]byte, chunkSize)
			v.chunks[ci] = c
		}
		copy(c[co:co+run], buf[n:n+run])
		n += run
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

type rangeError struct {
	off  int64
	n    int
	size int64
}

func errRange(off int64, n int, size int64) error { return &rangeError{off, n, size} }

func (e *rangeError) Error() string {
	return fmt.Sprintf("pagecache: access out of range: off=%d len=%d size=%d", e.off, e.n, e.size)
}
