package olfs

import (
	"fmt"
	"time"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
)

// Idle-time sector-error scanning (§4.7): "disc sector-error checking can be
// scheduled at idle times and can periodically scan all the burned disc
// arrays to check sector errors. When sector errors occur, data on the
// failed sectors can be recovered from their parity discs and the
// corresponding data discs in the same disc array ... The recovered data can
// be written to new buckets and finally burned into free disc arrays."

// RepairReport summarizes a scrub-and-repair pass over one tray.
type RepairReport struct {
	Scrub     ScrubReport
	BadDiscs  []int                  // positions whose discs failed readback
	Recovered []image.ID             // images reconstructed into fresh buckets
	Migrated  []image.ID             // readable images copied off the failed tray
	ReBurn    *sim.Completion[error] // non-nil when recovered images were queued to burn
}

// ScrubAndRepair scrubs a burned tray; if parity mismatches or unreadable
// discs are found, the affected data images are reconstructed from the
// surviving discs into new buckets and queued for re-burning onto a free
// array.
func (fs *FS) ScrubAndRepair(p *sim.Proc, tray rack.TrayID) (rep RepairReport, err error) {
	op := fs.tracer.StartOp(p, "olfs.scrub", "scrub")
	op.Annotate("tray", tray.String())
	defer func() { op.Finish(p, err) }()
	scrub, err := fs.ScrubTray(p, tray)
	rep.Scrub = scrub
	if err != nil {
		return rep, err
	}
	if len(scrub.BadStrips) == 0 {
		return rep, nil
	}
	// Probe each disc at the bad strips to find the failing positions. The
	// tray stays pinned across the probes so a concurrent fetch cannot swap
	// it out between positions.
	fs.sched.Pin(tray)
	defer fs.sched.Unpin(tray)
	gi, err := fs.fetchTray(p, tray, sched.Scrub)
	if err != nil {
		return rep, err
	}
	g := fs.lib.Groups[gi]
	onTray := fs.Cat.ImagesOnTray(tray)
	// Probe whole strips: a latent sector error can sit anywhere inside the
	// 1 MB strip that failed verification. All positions probe concurrently
	// (their discs sit in distinct drives), each admitted through the
	// group's read slots at scrub class.
	const stripLen = 1 << 20
	var probed []int // positions holding a cataloged image
	for pos := range g.Drives {
		if _, ok := onTray[pos]; ok {
			probed = append(probed, pos)
		}
	}
	badAt := make([]bool, len(g.Drives))
	_ = p.Fork("scrub-probe-d", len(probed), func(pp *sim.Proc, k int) error {
		pos := probed[k]
		view := optical.ImageView{Drive: g.Drives[pos]}
		probe := make([]byte, stripLen)
		for _, off := range scrub.BadStrips {
			n := int64(stripLen)
			if off+n > rep.Scrub.Checked {
				n = rep.Scrub.Checked - off
			}
			if n <= 0 {
				continue
			}
			fs.sched.AcquireReadSlot(pp, sched.Scrub, gi)
			rerr := view.ReadAt(pp, probe[:n], off)
			fs.sched.ReleaseReadSlot(gi)
			if rerr != nil {
				badAt[pos] = true
				break
			}
		}
		return nil
	})
	for pos, bad := range badAt {
		if bad {
			rep.BadDiscs = append(rep.BadDiscs, pos)
		}
	}
	// The tray is degraded — whether a disc failed outright or parity no
	// longer verifies (silent corruption). Move every data image off it: bad
	// images are reconstructed from the survivors plus parity, readable ones
	// are migrated by direct copy. The whole set re-burns onto a fresh array
	// (parity regenerates at burn time), so no image is left depending on the
	// failed tray's stale parity.
	dataN, parityPos := fs.trayLayout(onTray)
	parityAt := make(map[int]bool, len(parityPos))
	for _, pos := range parityPos {
		parityAt[pos] = true
	}
	badData := make(map[int]bool, len(rep.BadDiscs))
	for _, pos := range rep.BadDiscs {
		if pos < dataN && !parityAt[pos] {
			badData[pos] = true
		}
	}
	// Record the old placements: recovery and migration Forget each image as
	// they secure it, and if a later image fails mid-pass the forgets must be
	// rolled back — a partially-forgotten tray breaks the contiguous
	// data-then-parity layout every scrub relies on (disc contents are
	// untouched by Forget, so restoring the catalog entries is always safe).
	oldAddr := make(map[image.ID]image.DiscAddr, len(onTray))
	for _, id := range onTray {
		if a, ok := fs.Cat.Locate(id); ok {
			oldAddr[id] = a
		}
	}
	var rebirth []*bucket.Bucket
	var moved []image.ID
	for pos := 0; pos < dataN; pos++ {
		id, ok := onTray[pos]
		if !ok || parityAt[pos] {
			continue
		}
		var nb *bucket.Bucket
		var werr error
		if badData[pos] {
			nb, werr = fs.RecoverImage(p, id)
		} else {
			nb, werr = fs.migrateImage(p, id)
		}
		if werr != nil {
			for _, mid := range moved {
				fs.Cat.Place(mid, oldAddr[mid])
			}
			rep.Recovered, rep.Migrated = nil, nil
			return rep, fmt.Errorf("olfs: repair of %s: %w", id, werr)
		}
		moved = append(moved, id)
		if badData[pos] {
			rep.Recovered = append(rep.Recovered, id)
		} else {
			rep.Migrated = append(rep.Migrated, id)
		}
		rebirth = append(rebirth, nb)
	}
	// Parity images are regenerated when the set re-burns; drop their old
	// catalog locations so nothing references the retired tray.
	if len(parityPos) > 0 {
		for _, pos := range parityPos {
			fs.Cat.Forget(onTray[pos])
		}
	} else {
		for pos := dataN; pos < len(onTray); pos++ {
			if id, ok := onTray[pos]; ok {
				fs.Cat.Forget(id)
			}
		}
	}
	// Retire the tray from placement and the scrub rotation (§4.1's Failed
	// state) before queueing the re-burn, so the burn task cannot pick it.
	fs.Cat.SetDAState(tray, image.DAFailed)
	if len(rebirth) > 0 {
		for _, b := range rebirth {
			_ = fs.Buckets.MarkBurning(b)
		}
		rep.ReBurn = fs.enqueueBurn(rebirth)
		fs.m.repairs.Add(1)
	}
	return rep, nil
}

// StartScrubber launches the idle-time scrub daemon: every interval it picks
// the next burned tray (round-robin) and, when a drive group is free, scrubs
// and repairs it. Returns a stop function.
func (fs *FS) StartScrubber(interval time.Duration) func() {
	if interval <= 0 {
		interval = time.Hour
	}
	stop := false
	sim.NewDaemon(fs.env, "olfs-scrubber", func(p *sim.Proc) {
		next := 0
		for !stop {
			p.Sleep(interval)
			if stop || fs.stopped {
				return
			}
			// Only scrub when a group is idle (don't steal from burns/reads).
			idle := false
			for gi := range fs.lib.Groups {
				if fs.sched.GroupIdle(gi) {
					idle = true
					break
				}
			}
			if !idle {
				continue
			}
			trays := fs.Cat.Trays(image.DAUsed)
			if len(trays) == 0 {
				continue
			}
			tray := trays[next%len(trays)]
			next++
			if _, err := fs.ScrubAndRepair(p, tray); err != nil {
				continue // scrubbing is best-effort; the next pass retries
			}
			fs.m.scrubs.Add(1)
		}
	}).Wake()
	return func() { stop = true }
}

// StartMVSnapshots launches the periodic MV-to-disc checkpoint daemon
// (§4.2: "MV is periodically burned into discs"). Each tick checkpoints MV
// to its RAID-1 backend and writes a burnable snapshot into the namespace.
func (fs *FS) StartMVSnapshots(interval time.Duration) func() {
	if interval <= 0 {
		interval = 24 * time.Hour
	}
	stop := false
	sim.NewDaemon(fs.env, "olfs-mvsnap", func(p *sim.Proc) {
		for !stop {
			p.Sleep(interval)
			if stop || fs.stopped {
				return
			}
			if err := fs.Checkpoint(p); err != nil {
				continue
			}
			if _, err := fs.BurnMVSnapshot(p); err != nil {
				continue
			}
			fs.m.mvSnapshots.Add(1)
		}
	}).Wake()
	return func() { stop = true }
}
