package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"ros"
	"ros/internal/image"
	"ros/internal/olfs"
	"ros/internal/sim"
)

// Failure classes. A failed op never aborts the workload; it is counted.
const (
	failError  = "error"       // the call returned an error other than ErrOverload
	failWrong  = "wrong-bytes" // a read returned bytes that differ from what was written
	failPanic  = "panic"       // the call panicked (recovered by the harness)
	failUnburn = "not-burned"  // an acked file was on no disc after the final flush
	failBuffer = "buffer-grew" // the write buffer filled past the workload's limit: the offered load was not sustainable
)

const (
	segmentOps   = 100              // ops per host-CPU segment
	pollEvery    = 60 * time.Second // virtual period of the burn-lag poller
	shedBackoff  = 30 * time.Second // virtual wait before retrying a shed write
	traceJournal = 1 << 20          // tracer capacity of a traced pass: never evicts
	// drainPatience bounds the wait for in-flight burns after the final
	// flush; a file still off disc then is counted as a failure.
	drainPatience = 6 * time.Hour
)

// passConfig selects how one pass runs.
type passConfig struct {
	Traced  bool               // program tracer at full capture + harness span recorder
	Perturb func(*ros.Options) // selftest only: one deliberate change to the options
}

// ackedFile is a file the system acknowledged, in ack order.
type ackedFile struct {
	File  int
	Split bool // stored as more than one part (it crossed a bucket boundary)
}

// imgRef names one image in one rack's catalog by its DIL key.
type imgRef struct {
	cat *image.Catalog
	key string
}

// copyState is one replica of an acked file waiting to land on disc.
type copyState struct {
	f    *fileState
	left int // parts not yet locatable
}

type fileState struct {
	ack    time.Duration
	size   int
	landed bool
}

// pass is one execution of a workload on a fresh system.
type pass struct {
	w       *workload
	cfg     passConfig
	sys     *ros.System
	fss     []*olfs.FS
	pl      *payloads
	streams [][]op
	sizes   []int // payload size by file index
	t0      time.Duration

	acked     []ackedFile
	pending   map[imgRef][]*copyState
	order     []imgRef      // pending's keys in first-seen order: deterministic polling
	waiting   int           // acked files not yet on disc
	drainedAt time.Duration // when the final flush returned; 0 until then

	// results
	setup      time.Duration
	measWall   time.Duration
	writeLat   []time.Duration
	readLat    []time.Duration
	burnLag    []time.Duration
	attempted  int
	fails      map[string]int
	failNotes  []string
	sheds      int
	firstAck   time.Duration
	lastLanded time.Duration
	landed     int64 // user bytes whose first copy reached disc
	peakBufPct float64
	done       int // ops finished, for segment boundaries
	segCPU     []time.Duration
	lastCPU    time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	virtualEnd time.Duration
	rec        *spanRecorder
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// options returns the system options of a pass: the workload's sizing, the
// tracer off or at full capture, and the selftest's perturbation if any.
func (w *workload) options(cfg passConfig) ros.Options {
	o := w.Options
	o.TraceCapacity = -1
	if cfg.Traced {
		o.TraceCapacity = traceJournal
		o.TraceSampleEvery = 1
	}
	if cfg.Perturb != nil {
		cfg.Perturb(&o)
	}
	return o
}

// newPass generates the inputs from seed, builds a fresh system and runs
// set-up (pre-population) on it. The host CPU set-up took is recorded: CPU
// rather than wall time because a co-tenant's burst stretches wall time
// several-fold, and the simulation is single-threaded either way.
func newPass(w *workload, seed int64, cfg passConfig) (*pass, error) {
	start := cpuNow()
	rng := rand.New(rand.NewSource(seed))
	ps := &pass{
		w: w, cfg: cfg,
		streams: w.Gen(w, rng),
		pending: make(map[imgRef][]*copyState),
		fails:   make(map[string]int),
	}
	maxSize := w.SeededSize
	ps.sizes = make([]int, w.Seeded)
	for i := range ps.sizes {
		ps.sizes[i] = w.SeededSize
	}
	for _, s := range ps.streams {
		for _, o := range s {
			if o.Kind != opWrite {
				continue
			}
			for len(ps.sizes) <= o.File {
				ps.sizes = append(ps.sizes, 0)
			}
			ps.sizes[o.File] = o.Size
			maxSize = max(maxSize, o.Size)
		}
	}
	ps.pl = newPayloads(seed, maxSize)
	if cfg.Traced {
		ps.rec = &spanRecorder{}
	}
	sys, err := ros.New(w.options(cfg))
	if err != nil {
		return nil, err
	}
	ps.sys = sys
	if sys.Cluster != nil {
		for _, r := range sys.Cluster.Racks() {
			ps.fss = append(ps.fss, r.FS)
		}
	} else {
		ps.fss = []*olfs.FS{sys.FS}
	}
	if w.Seeded > 0 {
		err := sys.Do(func(p *sim.Proc) error {
			for i := 0; i < w.Seeded; i++ {
				if err := ps.write(p, filePath(i), ps.pl.data(i, w.SeededSize)); err != nil {
					return fmt.Errorf("set-up write %d: %w", i, err)
				}
				// Seal at file boundaries so that no pre-populated file is
				// split across images (see pick for why that matters).
				if (i+1)%w.SeededPerImage == 0 {
					if err := sys.FS.Sync(p); err != nil {
						return fmt.Errorf("set-up seal after file %d: %w", i, err)
					}
				}
			}
			return ps.flushAll(p)
		})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
	}
	ps.t0 = sys.Env.Now()
	ps.setup = cpuNow() - start
	return ps, nil
}

func (ps *pass) write(p *sim.Proc, path string, data []byte) error {
	if ps.sys.Cluster != nil {
		return ps.sys.Cluster.WriteFile(p, path, data)
	}
	return ps.sys.FS.WriteFile(p, path, data)
}

func (ps *pass) read(p *sim.Proc, path string) ([]byte, error) {
	if ps.sys.Cluster != nil {
		return ps.sys.Cluster.ReadFile(p, path)
	}
	return ps.sys.FS.ReadFile(p, path)
}

// flushAll forces every rack's sealed and open images to disc and waits.
func (ps *pass) flushAll(p *sim.Proc) error {
	var waits []*sim.Completion[error]
	for _, fs := range ps.fss {
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		waits = append(waits, c)
	}
	var first error
	for _, c := range waits {
		if _, err := c.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ps *pass) fail(kind, note string) {
	ps.fails[kind]++
	if len(ps.failNotes) < 8 {
		ps.failNotes = append(ps.failNotes, kind+": "+note)
	}
}

func (ps *pass) failed() int {
	n := 0
	for _, v := range ps.fails {
		n += v
	}
	return n
}

// opDone closes a host-CPU segment every segmentOps finished ops.
func (ps *pass) opDone() {
	ps.done++
	if ps.done%segmentOps == 0 {
		ps.closeSegment()
	}
}

func (ps *pass) closeSegment() {
	now := cpuNow()
	ps.segCPU = append(ps.segCPU, now-ps.lastCPU)
	ps.lastCPU = now
}

// run measures the workload: it starts the clients and the burn-lag poller,
// waits for the op streams to end, flushes everything to disc and stops.
func (ps *pass) run() {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := time.Now()
	cpu0 := cpuNow()
	ps.lastCPU = cpu0
	env := ps.sys.Env
	err := ps.sys.Do(func(p *sim.Proc) error {
		finished := sim.NewQueue[int](env)
		n := 0
		for c, s := range ps.streams {
			if len(s) == 0 {
				continue
			}
			n++
			s := s
			name := fmt.Sprintf("bench-client-%d", c)
			if ps.w.Closed {
				env.Go(name, func(cp *sim.Proc) { ps.closedClient(cp, s); finished.Push(0) })
			} else {
				env.Go(name, func(cp *sim.Proc) { ps.dispatch(cp, s); finished.Push(0) })
			}
		}
		polled := sim.NewQueue[int](env)
		env.Go("bench-burnlag", func(pp *sim.Proc) {
			// FlushAndBurn does not wait for burns that were already under
			// way, so keep polling after the drain until every acked file is
			// on disc, or nothing has landed for drainPatience.
			for ps.drainedAt == 0 || (ps.waiting > 0 && pp.Now()-max(ps.lastLanded, ps.drainedAt) < drainPatience) {
				pp.Sleep(pollEvery)
				ps.poll(pp.Now())
			}
			polled.Push(0)
		})
		for i := 0; i < n; i++ {
			finished.Pop(p)
		}
		sp := ps.rec.start(p, "flush_and_burn", nil)
		err := ps.flushAll(p)
		sp.end(p)
		ps.drainedAt = p.Now()
		polled.Pop(p)
		for _, fs := range ps.fss {
			if a := fs.WritePath().Admission(); a != nil {
				if pct := float64(a.MaxInflightBytes()) * 100 / float64(a.Config().CapacityBytes); pct > ps.peakBufPct {
					ps.peakBufPct = pct
				}
			}
		}
		if ps.sys.Cluster != nil {
			ps.sys.Cluster.Stop()
		} else {
			ps.sys.FS.Stop()
		}
		return err
	})
	ps.closeSegment() // the tail: ops past the last full segment, and the drain
	ps.cpu = cpuNow() - cpu0
	ps.measWall = time.Since(wall)
	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.virtualEnd = env.Now()
	if ps.waiting > 0 {
		ps.fails[failUnburn] += ps.waiting
	}
	if lim := ps.w.MaxBufferPct; lim > 0 && ps.peakBufPct > lim {
		ps.fail(failBuffer, fmt.Sprintf("write buffer peaked at %.1f%%, limit %.0f%%", ps.peakBufPct, lim))
	}
	if err != nil {
		ps.fail(failError, "drain: "+err.Error())
	}
}

// dispatch is an open-loop client: it sleeps to each arrival's due time and
// hands the arrival to a process of its own, so a slow op never delays the
// arrivals behind it (the generator is never late on a virtual clock).
func (ps *pass) dispatch(p *sim.Proc, s []op) {
	env := ps.sys.Env
	inflight := 0
	idle := sim.NewSignal(env)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j].Arrival == s[i].Arrival {
			j++
		}
		batch := s[i:j]
		i = j
		if d := ps.t0 + batch[0].Due - p.Now(); d > 0 {
			p.Sleep(d)
		}
		inflight++
		env.Go("bench-arrival", func(ap *sim.Proc) {
			sp := ps.rec.start(ap, "arrival", nil)
			due := ap.Now()
			for _, o := range batch {
				ps.do(ap, o, due, sp)
				due = ap.Now()
			}
			sp.end(ap)
			inflight--
			if inflight == 0 {
				idle.Pulse()
			}
		})
	}
	for inflight > 0 {
		idle.Wait(p)
	}
}

// closedClient issues its next op when the previous one is acknowledged,
// until the horizon.
func (ps *pass) closedClient(p *sim.Proc, s []op) {
	sp := ps.rec.start(p, "client", nil)
	defer sp.end(p)
	for _, o := range s {
		if p.Now()-ps.t0 >= ps.w.Horizon {
			return
		}
		ps.do(p, o, p.Now(), sp)
	}
	ps.fail(failError, "closed-loop stream ran out of generated ops before the horizon")
}

// do runs one op under recover, times it from due, checks read bytes and
// classifies any failure.
func (ps *pass) do(p *sim.Proc, o op, due time.Duration, parent *openSpan) {
	ps.attempted++
	defer ps.opDone()
	defer func() {
		if r := recover(); r != nil {
			ps.fail(failPanic, fmt.Sprint(r))
		}
	}()
	if o.Kind == opWrite {
		path := filePath(o.File)
		data := ps.pl.data(o.File, o.Size)
		sp := ps.rec.start(p, "write", parent)
		for {
			err := ps.write(p, path, data)
			if err == nil {
				break
			}
			if !errors.Is(err, ros.ErrOverload) {
				sp.end(p)
				ps.fail(failError, "write "+path+": "+err.Error())
				return
			}
			// Shed: the client backs off and retries the same file, and the
			// ack latency keeps running from the original due time.
			ps.sheds++
			p.Sleep(shedBackoff)
		}
		sp.end(p)
		ps.writeLat = append(ps.writeLat, p.Now()-due)
		ps.noteAck(o.File, p.Now())
		return
	}
	file, ok := ps.pick(o)
	if !ok {
		ps.fail(failError, "read issued before any file was acknowledged")
		return
	}
	path := filePath(file)
	sp := ps.rec.start(p, "read", parent)
	got, err := ps.read(p, path)
	sp.end(p)
	if err != nil {
		ps.fail(failError, fmt.Sprintf("t=%v due=%v read %s: %v", p.Now()-ps.t0, due-ps.t0, path, err))
		return
	}
	if !bytes.Equal(got, ps.pl.data(file, ps.sizes[file])) {
		ps.fail(failWrong, path)
		return
	}
	ps.readLat = append(ps.readLat, p.Now()-due)
}

// pick resolves a read's target against the files acknowledged so far.
func (ps *pass) pick(o op) (int, bool) {
	if o.From == fromSeeded {
		return int(o.Pick), true
	}
	n := len(ps.acked)
	if n == 0 {
		return 0, false
	}
	recent := ps.w.Recent
	if o.Window > 0 {
		recent = o.Window
	}
	if recent > n {
		recent = n
	}
	if o.From == fromOlder && n > recent {
		// A cold read of a split file fans out to processes the system
		// spawns; the known eviction race (README, defects) then panics
		// where the harness cannot recover it and the whole pass is lost.
		// Cold reads therefore take the next unsplit file. Split files are
		// still read back from the buffer tier, where no drive is involved.
		older := ps.acked[:n-recent]
		at := int(o.Pick) % len(older)
		for i := 0; i < len(older); i++ {
			if f := older[(at+i)%len(older)]; !f.Split {
				return f.File, true
			}
		}
	}
	return ps.acked[n-1-int(o.Pick)%recent].File, true
}

// noteAck records an acknowledged write and registers each of its replicas
// with the burn-lag tracker, keyed by the images holding its parts.
func (ps *pass) noteAck(file int, now time.Duration) {
	if len(ps.acked) == 0 {
		ps.firstAck = now
	}
	f := &fileState{ack: now, size: ps.sizes[file]}
	path := filePath(file)
	split := false
	for _, fs := range ps.fss {
		ix, ok := fs.MV.Lookup(path)
		if !ok || ix.Current() == nil {
			continue
		}
		cs := &copyState{f: f}
		split = split || len(ix.Current().Parts) > 1
		for _, id := range ix.Current().Parts {
			ref := imgRef{cat: fs.Cat, key: id.String()}
			if _, seen := ps.pending[ref]; !seen {
				ps.order = append(ps.order, ref)
			}
			ps.pending[ref] = append(ps.pending[ref], cs)
			cs.left++
		}
	}
	ps.acked = append(ps.acked, ackedFile{File: file, Split: split})
	ps.waiting++
}

// poll marks files whose images have become locatable on disc. A file has
// landed when every part of any one replica is.
func (ps *pass) poll(now time.Duration) {
	keep := ps.order[:0]
	for _, ref := range ps.order {
		if _, ok := ref.cat.DIL[ref.key]; !ok {
			keep = append(keep, ref)
			continue
		}
		for _, cs := range ps.pending[ref] {
			cs.left--
			if cs.left == 0 && !cs.f.landed {
				cs.f.landed = true
				ps.waiting--
				ps.burnLag = append(ps.burnLag, now-cs.f.ack)
				ps.landed += int64(cs.f.size)
				ps.lastLanded = now
			}
		}
		delete(ps.pending, ref)
	}
	ps.order = keep
}

// fingerprint hashes every virtual-clock and count result of the pass. Two
// passes of the same inputs must agree on it to the last bit.
func (ps *pass) fingerprint() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, set := range [][]time.Duration{ps.writeLat, ps.readLat, ps.burnLag} {
		put(int64(len(set)))
		for _, d := range set {
			put(int64(d))
		}
	}
	put(int64(ps.attempted))
	put(int64(ps.failed()))
	put(int64(ps.sheds))
	put(ps.landed)
	put(int64(ps.firstAck))
	put(int64(ps.lastLanded))
	put(int64(ps.virtualEnd))
	return h.Sum64()
}
