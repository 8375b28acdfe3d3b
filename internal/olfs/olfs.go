// Package olfs implements the Optical Library File System (§4 of the
// paper): the global virtualized POSIX namespace over the ROS tiered store.
//
// It composes the module structure of Fig 3:
//
//   - PI  (POSIX Interface)           — fsiface.go, vfs.FileSystem
//   - WBM (Writing Bucket Management) — write.go over internal/bucket
//   - DIM (Disc Image Management)     — internal/image catalog + parity
//   - BTM (Burning Task Management)   — task.go burn daemon
//   - FTM (Fetching Task Management)  — task.go fetch logic
//   - MC  (Mechanical Controller)     — internal/rack composites
//   - DB  (Disc Burning)              — internal/optical drives
//   - RC  (Read Cache)                — cache.go fill on fetch + bucket LRU
//   - MI  (Maintenance Interface)     — recover.go + stats accessors
//
// Files enter updatable UDF buckets on the disk write buffer (preliminary
// bucket writing, §4.3), full buckets seal into disc images, parity images
// are generated lazily (§4.7), and image sets are burned onto 12-disc trays
// asynchronously. Reads resolve through MV index files and fall down the
// tier ladder of Table 1: bucket -> buffered image -> disc in drive -> disc
// in roller.
package olfs

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
	"ros/internal/writepath"
)

// Config tunes OLFS. Zero fields take the documented defaults.
type Config struct {
	// DataDiscs and ParityDiscs set the per-tray redundancy (§4.7). Each
	// zero field takes its default on its own: 2 data discs and 1 parity
	// disc, a laptop-sized stripe. The paper's prototype runs 11+1
	// (RAID-5-like) or 10+2 (RAID-6-like). New refuses a set that does not
	// fit one drive group, or other than 1 or 2 parity discs.
	DataDiscs   int
	ParityDiscs int

	// DirectIO makes every data write/read also charge an MV op (journal
	// sync), the §5.2 tracing configuration for Fig 7.
	DirectIO bool

	// AutoBurn enqueues a burn task whenever DataDiscs images are sealed.
	AutoBurn bool
	// BurnStagger serializes drive burn starts within an array (metadata-
	// area formatting + task dispatch); calibrated so a 12x25GB array takes
	// the paper's 1146 s (Fig 9).
	BurnStagger time.Duration
	// Forepart stores the first 256 KB of each file in MV to bound first-
	// byte latency on roller misses (§4.8).
	Forepart bool
	// RecycleAfterBurn frees bucket slots immediately after burning instead
	// of retaining them as read cache (ablation knob; default keeps them).
	RecycleAfterBurn bool
	// BucketBytes overrides the bucket capacity (default: the disc
	// capacity). Smaller buckets are useful in tests; burned discs still
	// charge full write-all-once time.
	BucketBytes int64

	// Sched configures the mechanical request scheduler: fifo reproduces
	// the legacy reactive arbitration; qos-scan enables QoS classes with
	// aging, SCAN fetch ordering and LRU+demand victim selection.
	Sched sched.Config

	// Write configures the admission token bucket (internal/writepath).
	// The zero value keeps byte accounting on and blocking admission off; a
	// zero Admission.CapacityBytes defaults to the write buffer's total
	// bucket capacity. Write.Batch.SingleImage is the bench's one-image-
	// per-tray sensitivity switch.
	Write writepath.Config

	// Trace configures the causal request tracer (journal capacity, tail
	// sampling). The zero value enables tracing with defaults; set
	// Trace.Capacity negative to disable.
	Trace obs.TracerConfig
	// Tracer, when set, is the tracer this stack records into instead of
	// one built from Trace: a federation shares one across its racks, and
	// its owner attaches it to a registry.
	Tracer *obs.Tracer
}

// Calibrated OLFS costs. Every index-file operation costs mv.DefaultOpCost
// (Fig 7: ~2.5 ms).
const (
	// switchCost is the FUSE kernel-user mode switch charged per internal
	// operation (§4.8).
	switchCost = 600 * time.Microsecond
	// readReqCost/writeReqCost are the OLFS data-path costs per
	// request as delivered by the kernel (128 KB FUSE chunks), calibrated
	// from Fig 6 (ext4+OLFS vs ext4+FUSE).
	readReqCost  = 55 * time.Microsecond // 0.443 ms per 1 MB / 8 chunks
	writeReqCost = 29 * time.Microsecond // 0.234 ms per 1 MB / 8 chunks
	// vfsMountTime is the §5.4 "mounting disc into local VFS" delay.
	vfsMountTime = 220 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.DataDiscs == 0 {
		c.DataDiscs = 2
	}
	if c.ParityDiscs == 0 {
		c.ParityDiscs = 1
	}
	if c.BurnStagger == 0 {
		c.BurnStagger = 43 * time.Second
	}
	return c
}

// OLFS errors.
var (
	ErrNoBlankTray = errors.New("olfs: no empty tray with blank discs")
	ErrPartMissing = errors.New("olfs: image holding file part is unavailable")
	ErrStopped     = errors.New("olfs: filesystem stopped")
	// ErrReservedName refuses a path that could alias a name OLFS itself
	// writes inside disc images (see checkName).
	ErrReservedName = errors.New("olfs: path uses a reserved name")
)

// FS is the optical library file system.
type FS struct {
	env *sim.Env
	cfg Config
	lib *rack.Library

	MV      *mv.Volume
	mvStore mv.Backend
	Buckets *bucket.Manager
	Cat     *image.Catalog

	cur     *bucket.Bucket // open bucket receiving writes
	curMu   *sim.Resource  // serializes bucket writes (one PBW stream)
	writers []*fileWriter  // writers with a subfile open in cur, in creation order

	burnQ    *sim.Queue[*burnTask]
	btm      *sim.Daemon                  // starts a process per queued burn task
	sched    *sched.Scheduler             // arbitrates drive groups and arm demand
	wp       *writepath.Controller        // admission control + charge ledger
	fetches  map[int]*sim.Completion[int] // by rack.TrayID.Number
	mounted  map[*optical.Drive]*udf.Volume
	mounting map[*optical.Drive]mount // the one mount in flight per drive

	// groupEpoch[gi] increments every time group gi's tray is unloaded.
	// fileReader sources and fs.mounted entries record the epoch they were
	// resolved under; a mismatch marks them stale so reads transparently
	// re-resolve (via fetchTray) instead of reading the swapped-in tray.
	groupEpoch []uint64
	// unloading[gi] is set from the epoch bump until the unload or swap that
	// made it returns: the tray is in transit and the group is no source.
	unloading []bool
	// burning[gi] is the burn task holding group gi, from its blank tray being
	// in until the task releases the group; nil when none.
	burning []*burnTask

	// Read-cache fills in flight, by image.
	fills map[image.ID]bool

	stopped bool
	snapSeq int64 // the last MV snapshot's number (snap-NNNNNN); see seedMVSnapSeq

	obs     *obs.Registry
	tracer  *obs.Tracer
	m       fsMetrics
	opNames map[string]string // op name -> "olfs.op." + name, built once
}

// fsMetrics caches the registry handles for OLFS's counters and the latency
// histograms of its long-running task machinery.
type fsMetrics struct {
	filesWritten  *obs.Counter
	filesRead     *obs.Counter
	bytesWritten  *obs.Counter
	bytesRead     *obs.Counter
	burnTasks     *obs.Counter
	fetchTasks    *obs.Counter
	burnResumes   *obs.Counter
	splitFiles    *obs.Counter
	forepartHits  *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	interruptedBs *obs.Counter
	scrubs        *obs.Counter
	repairs       *obs.Counter
	mvSnapshots   *obs.Counter
	coalesced     *obs.Counter   // fetch waiters that joined an in-flight fetch
	mvCharges     *obs.Counter   // MV index-op costs charged (DirectIO data path)
	staleSources  *obs.Counter   // read-handle sources invalidated by tray eviction
	joinRetries   *obs.Counter   // joined fetches retried after the winner failed
	cacheFills    *obs.Counter   // images copied from disc into the read cache
	fillAborts    *obs.Counter   // fills given up (tray evicted, read error, no slot)
	fillLatency   *obs.Histogram // fill start to publication
	burnLatency   *obs.Histogram // one burn task run segment
	fetchLatency  *obs.Histogram // one mechanical fetch

	// One task is one set under one claim, so writepath.burn_sets and
	// writepath.burn_groups always equal burn_tasks. They stay because
	// bench/layers.go divides one by the other (writepath.sets_per_group);
	// the pair goes when a benchmark PR drops that metric.
	burnSets   *obs.Counter
	burnGroups *obs.Counter
}

// bindMetrics takes the registry handles for OLFS's counters and histograms.
// The task-latency histograms are created here, eagerly, so they appear in
// snapshots even before the first task completes.
func (fs *FS) bindMetrics(r *obs.Registry) {
	fs.obs = r
	fs.m = fsMetrics{
		filesWritten:  r.Counter("olfs.files_written"),
		filesRead:     r.Counter("olfs.files_read"),
		bytesWritten:  r.Counter("olfs.bytes_written"),
		bytesRead:     r.Counter("olfs.bytes_read"),
		burnTasks:     r.Counter("olfs.burn_tasks"),
		fetchTasks:    r.Counter("olfs.fetch_tasks"),
		burnResumes:   r.Counter("olfs.burn_resumes"),
		splitFiles:    r.Counter("olfs.split_files"),
		forepartHits:  r.Counter("olfs.forepart_hits"),
		cacheHits:     r.Counter("olfs.cache_hits"),
		cacheMisses:   r.Counter("olfs.cache_misses"),
		interruptedBs: r.Counter("olfs.interrupted_burns"),
		scrubs:        r.Counter("olfs.scrubs"),
		repairs:       r.Counter("olfs.repairs"),
		mvSnapshots:   r.Counter("olfs.mv_snapshots"),
		coalesced:     r.Counter("sched.coalesced_fetches"),
		mvCharges:     r.Counter("olfs.mv_charges"),
		staleSources:  r.Counter("olfs.stale_sources"),
		joinRetries:   r.Counter("olfs.join_retries"),
		cacheFills:    r.Counter("olfs.cache_fills"),
		fillAborts:    r.Counter("olfs.cache_fill_aborts"),
		fillLatency:   r.Histogram("olfs.cache_fill.latency"),
		burnLatency:   r.Histogram("olfs.burn.latency"),
		fetchLatency:  r.Histogram("olfs.fetch.latency"),
		burnSets:      r.Counter("writepath.burn_sets"),
		burnGroups:    r.Counter("writepath.burn_groups"),
	}
}

// New assembles OLFS over a rack library, an MV backend (RAID-1 SSDs) and a
// disk write buffer (the page cache over RAID-5 volumes). The bucket capacity
// equals the library's disc capacity unless cfg.BucketBytes is set. OLFS, its
// scheduler, MV and tracer record into the library's registry, so the whole
// stack shares one snapshot.
func New(env *sim.Env, cfg Config, lib *rack.Library, mvBackend mv.Backend, buffer *pagecache.Volume) (*FS, error) {
	cfg = cfg.withDefaults()
	// A set burns one disc per drive of a group, and the codec (§4.7) makes
	// one (RAID-5) or two (RAID-6) parity images.
	if k, m := cfg.DataDiscs, cfg.ParityDiscs; k < 1 || m < 1 || m > 2 || k+m > rack.DrivesPerGroup {
		return nil, fmt.Errorf("olfs: %d data + %d parity discs: need at least 1 data disc, 1 or 2 parity discs, and at most %d discs in all",
			k, m, rack.DrivesPerGroup)
	}
	discCap := cfg.BucketBytes
	if discCap <= 0 {
		discCap = lib.Config().Media.Capacity()
	}
	slots := int(buffer.Size() / discCap)
	if slots < cfg.DataDiscs+cfg.ParityDiscs {
		return nil, fmt.Errorf("olfs: buffer fits %d bucket slots, need >= %d",
			slots, cfg.DataDiscs+cfg.ParityDiscs)
	}
	mgr, err := bucket.NewManager(env, buffer, discCap, slots)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		env:        env,
		cfg:        cfg,
		lib:        lib,
		MV:         mv.New(env, mvBackend, mv.DefaultOpCost),
		mvStore:    mvBackend,
		Buckets:    mgr,
		Cat:        image.NewCatalog(),
		curMu:      sim.NewResource(env, 1),
		burnQ:      sim.NewQueue[*burnTask](env),
		fetches:    make(map[int]*sim.Completion[int]),
		mounted:    make(map[*optical.Drive]*udf.Volume),
		mounting:   make(map[*optical.Drive]mount),
		groupEpoch: make([]uint64, len(lib.Groups)),
		unloading:  make([]bool, len(lib.Groups)),
		burning:    make([]*burnTask, len(lib.Groups)),
		fills:      make(map[image.ID]bool),
		opNames:    make(map[string]string),
	}
	reg := lib.Obs()
	fs.bindMetrics(reg)
	mgr.AttachObs(reg)
	if fs.tracer = cfg.Tracer; fs.tracer == nil {
		fs.tracer = obs.NewTracer(env, cfg.Trace)
		reg.AttachTracer(fs.tracer)
	}
	fs.MV.AttachObs(reg)
	fs.sched = sched.New(env, cfg.Sched, lib)
	wcfg := cfg.Write
	if wcfg.Admission.CapacityBytes <= 0 {
		wcfg.Admission.CapacityBytes = int64(slots) * discCap
	}
	fs.wp = writepath.New(env, wcfg, reg)
	// §4.8: when a fetch is starved because every group is claimed or
	// burning, abort one burning array; the burn task unloads, requeues
	// itself in append mode and releases its group claim.
	fs.sched.SetStarvedHook(fs.interruptBurn)
	fs.btm = sim.NewDaemon(env, "olfs-btm", fs.startBurns)
	return fs, nil
}

// Sched returns the mechanical request scheduler (operational visibility:
// queue depths, per-class waits).
func (fs *FS) Sched() *sched.Scheduler { return fs.sched }

// WritePath returns the write-path controller: the admission token bucket
// and its charge ledger (operational visibility + tests).
func (fs *FS) WritePath() *writepath.Controller { return fs.wp }

// Config returns the effective configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Library returns the underlying mechanical library.
func (fs *FS) Library() *rack.Library { return fs.lib }

// Obs returns the metrics registry shared by the whole stack.
func (fs *FS) Obs() *obs.Registry { return fs.obs }

// Tracer returns the causal request tracer (nil when tracing is disabled).
func (fs *FS) Tracer() *obs.Tracer { return fs.tracer }

// Stop refuses new work (for tests, after draining): writes fail with
// ErrStopped and queueing a burn panics. Work already
// queued still runs.
func (fs *FS) Stop() {
	if !fs.stopped {
		fs.stopped = true
		fs.burnQ.Close()
	}
}

// op runs one internal OLFS operation: a kernel-user mode switch followed by
// the operation body, recorded as an olfs.op.<name> child span of the
// request's trace and in the per-op histogram.
func (fs *FS) op(p *sim.Proc, name string, fn func() error) error {
	p.Sleep(switchCost)
	return fs.timedOp(p, name, fn)
}

// dataOp runs a data (read/write) request. Buffered requests arrive through
// the FUSE splice path, whose per-chunk switch is charged by the fuse layer,
// so only DirectIO requests (the Fig 7 tracing mode, one full round trip per
// op) pay the metadata-grade switch here.
func (fs *FS) dataOp(p *sim.Proc, name string, fn func() error) error {
	if fs.cfg.DirectIO {
		p.Sleep(switchCost)
	}
	return fs.timedOp(p, name, fn)
}

// timedOp is the body op and dataOp share: the span and the histogram.
func (fs *FS) timedOp(p *sim.Proc, name string, fn func() error) error {
	start := p.Now()
	full, ok := fs.opNames[name]
	if !ok {
		full = "olfs.op." + name
		fs.opNames[name] = full
	}
	sp := obs.StartChild(p, full)
	err := fn()
	sp.Fail(p, err)
	fs.obs.Histogram(full).ObserveSince(start, p.Now())
	return err
}

// chargeMVOp charges one index-op cost without touching an index (the
// close/release operations of Fig 7).
func (fs *FS) chargeMVOp(p *sim.Proc) {
	fs.m.mvCharges.Add(1)
	p.Sleep(fs.MV.OpCost())
}

// ensureBucket returns the open bucket, opening one if needed. Caller holds
// curMu.
func (fs *FS) ensureBucket(p *sim.Proc) (*bucket.Bucket, error) {
	if fs.cur != nil && fs.cur.State() == bucket.StateOpen {
		return fs.cur, nil
	}
	b, err := fs.Buckets.Open(p)
	if err != nil {
		return nil, err
	}
	fs.cur = b
	return b, nil
}

// sealCurrent seals the open bucket into an image and triggers the BTM if
// enough images are ready. Every writer still streaming into the bucket
// closes its subfile there first, so nothing lands in the image once it is
// sealed; such a writer continues in the next bucket on its next Write, as a
// split file does (§4.5). Caller holds curMu.
func (fs *FS) sealCurrent(p *sim.Proc) error {
	if fs.cur == nil || fs.cur.State() != bucket.StateOpen {
		return nil
	}
	for len(fs.writers) > 0 {
		if err := fs.writers[0].finishSubfile(p); err != nil {
			return err
		}
	}
	if err := fs.Buckets.Seal(p, fs.cur); err != nil {
		return err
	}
	fs.cur = nil
	fs.maybeEnqueueBurn()
	return nil
}

// Sync seals the current bucket (even if not full) and enqueues any complete
// burn sets — the flush entry point of the maintenance interface.
func (fs *FS) Sync(p *sim.Proc) error {
	fs.curMu.Acquire(p)
	defer fs.curMu.Release()
	return fs.sealCurrent(p)
}

// FlushAndBurn seals the current bucket and forces burn tasks for ALL
// sealed images, including a trailing partial set (fewer than DataDiscs).
// The returned completion resolves when every enqueued task finishes, with
// the first error if any.
func (fs *FS) FlushAndBurn(p *sim.Proc) (*sim.Completion[error], error) {
	fs.curMu.Acquire(p)
	if err := fs.sealCurrent(p); err != nil {
		fs.curMu.Release()
		return nil, err
	}
	fs.curMu.Release()
	tasks := fs.enqueueSets(fs.Buckets.FilledUnburned(), fs.cfg.DataDiscs, true)
	all := sim.NewCompletion[error](fs.env)
	if len(tasks) == 0 {
		all.Resolve(nil, nil)
		return all, nil
	}
	fs.env.Go("flush-join", func(jp *sim.Proc) {
		var firstErr error
		for _, t := range tasks {
			if _, err := t.Wait(jp); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		all.Resolve(firstErr, firstErr)
	})
	return all, nil
}

// maybeEnqueueBurn queues a burn task for every full set of sealed images;
// each is its own task, so several drive groups burn concurrently. A
// trailing partial set waits for more images or for FlushAndBurn.
func (fs *FS) maybeEnqueueBurn() {
	if !fs.cfg.AutoBurn {
		return
	}
	n := fs.cfg.DataDiscs
	if fs.cfg.Write.Batch.SingleImage {
		n = 1
	}
	fs.enqueueSets(fs.Buckets.FilledUnburned(), n, false)
}

// enqueueSets chunks imgs (oldest first) into sets of n data images and
// queues one burn task per set; a trailing set of fewer than n is queued
// only when partial is set.
func (fs *FS) enqueueSets(imgs []*bucket.Bucket, n int, partial bool) []*sim.Completion[error] {
	var tasks []*sim.Completion[error]
	for len(imgs) >= n || (partial && len(imgs) > 0) {
		k := min(n, len(imgs))
		tasks = append(tasks, fs.enqueueBurn(imgs[:k]))
		imgs = imgs[k:]
	}
	return tasks
}

// enqueueBurn marks one set's images burning and queues its task.
func (fs *FS) enqueueBurn(imgs []*bucket.Bucket) *sim.Completion[error] {
	for _, b := range imgs {
		// Ignore errors: FilledUnburned guarantees the filled state.
		_ = fs.Buckets.MarkBurning(b)
	}
	t := &burnTask{images: imgs, done: sim.NewCompletion[error](fs.env)}
	fs.m.burnTasks.Add(1)
	fs.m.burnSets.Add(1)
	fs.m.burnGroups.Add(1)
	fs.queueBurn(t)
	return t.done
}
