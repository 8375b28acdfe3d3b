package olfs

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
)

// burnTask is one disc array's worth of burning (BTM + DB + MC): k data
// images plus lazily generated parity images, burned onto the 12 discs of
// one empty tray under one drive-group claim.
type burnTask struct {
	images   []*bucket.Bucket // data images
	parity   []*bucket.Bucket // generated on first run (delayed parity, §4.7)
	tray     *rack.TrayID
	progress []burnProg // per-position progress for append-mode resume
	resumed  bool
	attempts int
	done     *sim.Completion[error]
}

type burnProg struct {
	logical int64 // logical bytes burned so far
	payload int64 // payload bytes copied so far
	done    bool  // this position's burn completed
}

// offsetSource lends a bucket's payload to a burn, continuing at base.
type offsetSource struct {
	b    *bucket.Bucket
	base int64
	size int64
}

func (s offsetSource) Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error) {
	return s.b.Lend(p, s.base+off, n, dst)
}
func (s offsetSource) Size() int64 { return s.size }

// zeroTail views a bucket backend as exactly limit payload bytes: reads past
// the limit return zeros. A recycled buffer slot can hold stale bytes from
// its previous tenant beyond the current image's payload, but the burned
// disc reads zeros past the image's watermark — so parity must be computed
// over zeros there too, or scrub verification of any mixed-length set would
// flag phantom mismatches forever.
type zeroTail struct {
	b     image.Backend
	limit int64
}

func (z zeroTail) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	n := int64(len(buf))
	keep := int64(0)
	if off < z.limit {
		keep = z.limit - off
		if keep > n {
			keep = n
		}
		if err := z.b.ReadAt(p, buf[:keep], off); err != nil {
			return err
		}
	}
	clear(buf[keep:])
	return nil
}

func (z zeroTail) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return z.b.WriteAt(p, buf, off)
}

func (z zeroTail) Size() int64 { return z.limit }

// usedBytes returns the payload size of an image bucket, 2 KB aligned.
func usedBytes(b *bucket.Bucket) int64 {
	u := b.Used()
	if r := u % udf.BlockSize; r != 0 {
		u += udf.BlockSize - r
	}
	return u
}

// queueBurn hands t to the BTM.
func (fs *FS) queueBurn(t *burnTask) {
	fs.burnQ.Push(t)
	fs.btm.Wake()
}

// startBurns is the BTM's body: it empties the burn queue, starting each task
// as its own process so multiple drive groups can burn concurrently.
func (fs *FS) startBurns(p *sim.Proc) {
	for fs.burnQ.Len() > 0 {
		task, _ := fs.burnQ.Pop(p)
		fs.env.Go("olfs-burn", func(tp *sim.Proc) {
			fs.runBurnTask(tp, task)
		})
	}
}

// runBurnTask drives one burn task to completion (or failure), re-queueing
// itself after an interrupt. Each run segment (initial, resumed, retried) is
// one olfs.burn.latency span, so the histogram records real drive-group
// occupancy rather than end-to-end task age.
func (fs *FS) runBurnTask(p *sim.Proc, t *burnTask) {
	sp := fs.obs.StartSpan("olfs.burn.latency")
	defer sp.End()
	// Each run segment is its own trace; segments that end in a requeue
	// (interrupt resume, hard-fail retry) are marked as retried so tail
	// sampling always captures them.
	op := fs.tracer.StartOp(p, "olfs.burn", "burn")
	op.AnnotateInt("images", int64(len(t.images)))
	if t.resumed {
		// This run continues an interrupted burn in append mode. Clear the
		// flag now: if this run hard-fails, the retry restarts from scratch
		// on a fresh tray and must not inherit resume bookkeeping.
		t.resumed = false
		fs.m.burnResumes.Add(1)
		op.Annotate("resumed", "true")
	}
	var opErr error
	defer func() { op.Finish(p, opErr) }()
	abandon := func(err error) {
		opErr = err
		fs.abandonBurn(t, err)
	}

	// Parity and the blank-tray reservation come before the drive-group
	// claim, so a task waiting for a group holds everything else it needs.
	if t.parity == nil && fs.cfg.ParityDiscs > 0 {
		if err := fs.generateParity(p, t); err != nil {
			abandon(err)
			return
		}
	}
	if t.tray == nil {
		tray, ok := fs.Cat.FindEmptyTray(fs.lib)
		if !ok {
			abandon(ErrNoBlankTray)
			return
		}
		t.tray = &tray
		// Reserve immediately ("DAindex_i will be modified to Used when
		// disc array i is used", §4.1) so a concurrent task can't pick
		// it too.
		fs.Cat.SetDAState(tray, image.DAUsed)
	}
	op.Annotate("tray", t.tray.String())

	g := fs.sched.AcquireBurn(p, *t.tray)
	gi := g.Group
	var err error
	if g.Evict {
		err = fs.unloadGroup(p, gi)
	}
	if err == nil {
		err = fs.lib.LoadArray(p, *t.tray, gi)
	}
	if err != nil {
		fs.sched.Release(gi)
		abandon(err)
		return
	}
	interrupted, burnErr := fs.burnDiscs(p, t, gi)
	// A burned array stays in its drives: a read of the just-burned data is
	// then an in-drive read (Table 1 row 3), not a reload, and whoever next
	// needs the group unloads it through the scheduler's victim path. A
	// failed or interrupted run puts its array back now: the retry needs a
	// fresh tray and the resume reloads this one.
	if burnErr != nil || interrupted {
		if err := fs.unloadGroup(p, gi); burnErr == nil {
			burnErr = err
		}
	}
	// The claim goes back before the outcome is handled: the next claimant
	// need not wait out finishBurn's catalog save, and a requeued task
	// arbitrates for a group like any other.
	fs.sched.Release(gi)
	switch {
	case burnErr != nil:
		// Hard failure: mark the tray Failed and retry once on a new tray.
		// An interrupt observed in the same run still counts (the
		// preemption happened), but the fresh tray restarts every disc
		// from scratch.
		if interrupted {
			fs.m.interruptedBs.Add(1)
		}
		fs.Cat.SetDAState(*t.tray, image.DAFailed)
		fs.env.Emit(sim.KindBurnFail, p.Name(), t.tray.String())
		t.tray = nil
		t.progress = nil
		t.attempts++
		if t.attempts < 2 {
			op.Retry()
			fs.queueBurn(t)
			return
		}
		abandon(burnErr)
	case interrupted:
		// A fetch preempted us (§4.8 interrupt policy): requeue to
		// resume with append-mode burning on the same tray.
		fs.m.interruptedBs.Add(1)
		fs.env.Emit(sim.KindBurnInterrupt, p.Name(), t.tray.String())
		op.Retry()
		t.resumed = true
		fs.queueBurn(t)
	default:
		fs.env.Emit(sim.KindBurnFinish, p.Name(), t.tray.String())
		fs.finishBurn(p, t)
		t.done.Resolve(nil, nil)
	}
}

// burnDiscs burns the task's images onto the tray loaded in group gi: all
// discs in parallel with staggered starts (Fig 9). It reports whether the
// burn was interrupted and the first hard error.
func (fs *FS) burnDiscs(p *sim.Proc, t *burnTask, gi int) (bool, error) {
	g := fs.lib.Groups[gi]
	all := append(append([]*bucket.Bucket(nil), t.images...), t.parity...)
	if t.progress == nil {
		t.progress = make([]burnProg, len(all))
	}
	// Each disc's outcome lands in its own slot: an interrupt on one disc and
	// a hard error on another must both be seen.
	errs := make([]error, len(all))
	// The per-disc processes start with the burn trace: their optical.burn
	// spans nest under this task's olfs.burn span, and Fork awaits every one
	// of them, so no span outlives the trace.
	_ = p.Fork("burn-"+t.tray.String()+"-d", len(all), func(bp *sim.Proc, i int) error {
		bp.Sleep(time.Duration(i) * fs.cfg.BurnStagger)
		pr := &t.progress[i]
		if pr.done {
			return nil // this disc already finished pre-interrupt
		}
		img := all[i]
		payload := usedBytes(img)
		src := offsetSource{b: img, base: pr.payload, size: max(0, payload-pr.payload)}
		// LogicalBytes 0 lets the drive size the track itself: the full
		// capacity for a fresh disc, or the remaining capacity net of the
		// append-mode track-metadata zone when resuming. (Requesting
		// discCap-pr.logical here used to overshoot the disc by exactly
		// TrackMetaZone on every resume, turning each §4.8 resume into an
		// ErrDiscFull hard failure.)
		rep, err := g.Drives[i].Burn(bp, src, optical.BurnOptions{
			Append: pr.logical > 0,
		})
		pr.logical += rep.LogicalBytes
		pr.payload += rep.PayloadBytes
		if err == nil {
			pr.done = true
		}
		errs[i] = err
		return nil
	})
	interrupted := false
	var firstErr error
	for _, err := range errs {
		if err != nil {
			if errors.Is(err, optical.ErrBurnAborted) {
				interrupted = true
			} else if firstErr == nil {
				firstErr = err
			}
		}
	}
	return interrupted, firstErr
}

// generateParity allocates parity slots and computes P (and Q) across the
// data images (DIM, §4.7).
func (fs *FS) generateParity(p *sim.Proc, t *burnTask) (err error) {
	sp := fs.obs.StartSpan("olfs.parity.latency")
	defer sp.End()
	op := fs.tracer.StartOp(p, "olfs.parity", "burn")
	defer func() { op.Finish(p, err) }()
	length := int64(0)
	data := make([]image.Backend, len(t.images))
	for i, b := range t.images {
		data[i] = zeroTail{b: b.Backend(), limit: usedBytes(b)}
		if u := usedBytes(b); u > length {
			length = u
		}
	}
	if length == 0 {
		length = udf.BlockSize
	}
	// On any failure the half-built parity buckets are regenerable: discard
	// them so the slots return to the pool instead of leaking as Open.
	discard := func() {
		for _, b := range t.parity {
			_ = fs.Buckets.Discard(b)
		}
		t.parity = nil
	}
	for i := 0; i < fs.cfg.ParityDiscs; i++ {
		pb, err := fs.Buckets.OpenRaw(p, length)
		if err != nil {
			discard()
			return err
		}
		t.parity = append(t.parity, pb)
	}
	par := make([]image.Backend, len(t.parity))
	for i, b := range t.parity {
		par[i] = b.Backend()
	}
	if err := fs.strips.GenerateParity(p, data, par, length); err != nil {
		discard()
		return err
	}
	for _, b := range t.parity {
		if err := fs.Buckets.Seal(p, b); err != nil {
			discard()
			return err
		}
		if err := fs.Buckets.MarkBurning(b); err != nil {
			discard()
			return err
		}
	}
	return nil
}

// finishBurn records catalog state, returns the task's admission charges to
// the write-path token bucket, and releases buffer copies.
func (fs *FS) finishBurn(p *sim.Proc, t *burnTask) {
	all := append(append([]*bucket.Bucket(nil), t.images...), t.parity...)
	for i, b := range all {
		fs.Cat.Place(b.ID, image.DiscAddr{
			Tray: *t.tray, Pos: i, Len: usedBytes(b),
			Parity: i >= len(t.images),
		})
		_ = fs.Buckets.MarkBurned(b)
		// Release charges before Recycle: recycling clears the bucket's ID.
		fs.wp.ReleaseBucket(b.ID)
		if fs.cfg.RecycleAfterBurn {
			_ = fs.Buckets.Recycle(p, b)
		}
	}
	fs.Cat.SetDAState(*t.tray, image.DAUsed)
	_ = fs.MV.SaveState(p, "catalog", fs.Cat)
}

// abandonBurn gives a task up: its data images return to the filled state
// (they hold the only copy of user data and stay readable from the buffer —
// their admission charges stay held, since they still occupy the buffer)
// and the task resolves with err. Parity buckets are discarded, not kept:
// they are regenerated on any later burn, and leaving them Filled would
// leak buffer slots that no flush ever collects. A tray the task still
// holds reserved is given up too, or it would stay Used and empty for ever.
func (fs *FS) abandonBurn(t *burnTask, err error) {
	for _, b := range t.images {
		if b.State() == bucket.StateBurning {
			_ = fs.Buckets.MarkBurnFailed(b)
		}
	}
	for _, b := range t.parity {
		_ = fs.Buckets.Discard(b)
	}
	t.parity = nil
	if t.tray != nil {
		// The claim or the load failed, and rack's load and unload fail
		// before any disc moves, so the reserved tray is physically as it
		// was: blank again if nothing was burned, unusable for a new set if
		// it carries partial tracks (a resumed task whose reload failed).
		st := image.DAEmpty
		for _, pr := range t.progress {
			if pr.logical > 0 {
				st = image.DAFailed
			}
		}
		fs.Cat.SetDAState(*t.tray, st)
		t.tray = nil
	}
	t.done.Resolve(err, err)
}

// PrefetchTray explicitly loads a tray into drive group gi (maintenance
// interface), swapping out any idle array first. Fails if the group is
// burning.
func (fs *FS) PrefetchTray(p *sim.Proc, tray rack.TrayID, gi int) error {
	g, err := fs.lib.Group(gi)
	if err != nil {
		return err
	}
	if g.Source != nil && *g.Source == tray {
		return nil
	}
	if g.AnyBurning() || !fs.sched.TryClaim(gi) {
		return fmt.Errorf("olfs: group %d busy", gi)
	}
	defer fs.sched.Release(gi)
	// If another group holds the requested tray, put that array back first.
	for ogi, og := range fs.lib.Groups {
		if ogi == gi || og.Source == nil || *og.Source != tray {
			continue
		}
		if og.AnyBurning() || !fs.sched.TryClaim(ogi) {
			return fmt.Errorf("olfs: tray %v pinned in busy group %d", tray, ogi)
		}
		err := fs.unloadGroup(p, ogi)
		fs.sched.Release(ogi)
		if err != nil {
			return err
		}
	}
	if g.Loaded() {
		if err := fs.unloadGroup(p, gi); err != nil {
			return err
		}
	}
	return fs.lib.LoadArray(p, tray, gi)
}

// UnloadIdle returns every idle array to its tray (maintenance interface):
// each group that is unclaimed, not burning and holds no tray with pending
// demand is claimed, unloaded and released in turn. A burned array stays in
// its drives until something needs the group; this puts the library back in
// the "array in roller" state on demand.
func (fs *FS) UnloadIdle(p *sim.Proc) error {
	for gi, g := range fs.lib.Groups {
		if !g.Loaded() || g.AnyBurning() || fs.sched.Pinned(*g.Source) || !fs.sched.TryClaim(gi) {
			continue
		}
		err := fs.unloadGroup(p, gi)
		fs.sched.Release(gi)
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchTray brings the disc array holding requested data into a drive group
// (FTM). Concurrent fetches of the same tray coalesce into one mechanical
// load; the tray's scheduler demand stays pinned from first request until
// every coalesced consumer has its group index, so victim selection can
// never swap the array out from under queued waiters. Returns the group
// index now holding the tray.
func (fs *FS) fetchTray(p *sim.Proc, tray rack.TrayID, class sched.Class) (gi int, err error) {
	op := fs.tracer.StartOp(p, "olfs.fetch", class.String())
	op.Annotate("tray", tray.String())
	defer func() { op.Finish(p, err) }()
	key := tray.String()
	fs.sched.Pin(tray)
	defer fs.sched.Unpin(tray)
	joinFails := 0
	for {
		// Already loaded (and not on its way out)?
		if gi := fs.groupHolding(tray); gi >= 0 {
			return gi, nil
		}
		if c, ok := fs.fetches[key]; ok {
			// Coalesce with the in-flight fetch, then re-verify.
			fs.fetchJoins[key]++
			fs.m.coalesced.Add(1)
			if _, err := c.Wait(p); err != nil {
				// The winner's mechanical load failed, but that error is the
				// winner's, not ours: a fresh caller would simply try the
				// fetch itself. Loop once more and become (or join) the next
				// winner; give up only if that attempt fails too.
				joinFails++
				if joinFails > 1 {
					return 0, err
				}
				fs.m.joinRetries.Add(1)
			}
			continue
		}
		c := sim.NewCompletion[int](fs.env)
		fs.fetches[key] = c
		gi, err = fs.runFetch(p, tray, class)
		fs.m.batchSize.Observe(int64(1 + fs.fetchJoins[key]))
		delete(fs.fetchJoins, key)
		delete(fs.fetches, key)
		c.Resolve(gi, err)
		return gi, err
	}
}

// runFetch performs the mechanical fetch: the scheduler picks the group (and
// victim, if a swap is needed) per the configured policy, this side does the
// mechanical work. The §4.8 all-drives-burning read policy is applied by the
// scheduler's starvation hook.
func (fs *FS) runFetch(p *sim.Proc, tray rack.TrayID, class sched.Class) (int, error) {
	fs.m.fetchTasks.Add(1)
	sp := fs.obs.StartSpan("olfs.fetch.latency")
	defer sp.End()
	defer fs.env.Emit(sim.KindFetch, p.Name(), tray.String())
	g := fs.sched.AcquireFetch(p, class, tray)
	gi := g.Group
	if g.Hit {
		// Another task loaded the tray while we were queued.
		return gi, nil
	}
	var err error
	if g.Evict {
		// Table 1 row 5, ~155 s: unload the victim, then load.
		err = fs.unloadGroup(p, gi)
	}
	if err == nil {
		// Table 1 row 4, ~70 s: plain load into the (now) empty group.
		err = fs.lib.LoadArray(p, tray, gi)
	}
	fs.sched.Release(gi)
	if err != nil {
		return 0, err
	}
	return gi, nil
}
