package experiments

import (
	"fmt"
	"time"

	"ros/internal/cluster"
	"ros/internal/image"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
)

// AblationParallelRead quantifies the tray-wide parallel read plane: parity
// verification and erasure recovery over a full 12-disc array read all
// columns concurrently (one reader per drive, Table 2's 282.5 MB/s aggregate)
// instead of walking them one drive at a time (24.1 MB/s). The parallel leg
// times OLFS's ScrubTray and RecoverImage; the serial leg times image's
// one-disc-at-a-time reference walks, image.VerifyParity and image.Recover,
// over the same tray's drives. The tray is prefetched before timing so the
// ~70 s mechanical load does not mask the read-path difference.
func AblationParallelRead() (Result, error) {
	res := Result{ID: "ablate-pread", Title: "Tray-wide parallel strip reads vs single-drive walk (§4.7)"}
	const fileBytes = 3 << 20
	measure := func(serial bool) (scrub, recover float64, err error) {
		bed, err := NewBed(cluster.StackConfig{
			BucketBytes: 4 << 20,
			BufferSlots: 40,
			FS: olfs.Config{
				DataDiscs: 11, ParityDiscs: 1, AutoBurn: false,
				RecycleAfterBurn: true, BurnStagger: time.Second,
			},
		})
		if err != nil {
			return 0, 0, err
		}
		defer bed.Env.Close()
		fs := bed.FS
		err = bed.Run(func(p *sim.Proc) error {
			// One bucket per data disc: an 11+1 tray burns in one batch.
			for i := 0; i < 11; i++ {
				name := fmt.Sprintf("/pr/f%02d", i)
				if err := fs.WriteFile(p, name, pat(fileBytes, byte(i+1))); err != nil {
					return err
				}
				if err := fs.Sync(p); err != nil {
					return err
				}
			}
			c, err := fs.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
			trays := fs.Cat.Trays(image.DAUsed)
			if len(trays) == 0 {
				return fmt.Errorf("ablate-pread: no burned tray")
			}
			tray := trays[0]
			// A scrub or recovery targets an archived tray: load it cold
			// from the roller. The just-burned array is still loaded and
			// spun up, so prefetching it in place would time warm drives.
			if err := fs.UnloadIdle(p); err != nil {
				return err
			}
			if err := fs.PrefetchTray(p, tray, 0); err != nil {
				return err
			}
			if serial {
				scrub, recover, err = serialWalk(p, fs, tray, 0)
				return err
			}
			start := p.Now()
			if _, err := fs.ScrubTray(p, tray); err != nil {
				return err
			}
			scrub = (p.Now() - start).Seconds()
			ix, err := fs.MV.Stat(p, "/pr/f00")
			if err != nil {
				return err
			}
			start = p.Now()
			if _, err := fs.RecoverImage(p, ix.Current().Parts[0]); err != nil {
				return err
			}
			recover = (p.Now() - start).Seconds()
			return nil
		})
		return scrub, recover, err
	}
	serScrub, serRec, err := measure(true)
	if err != nil {
		return res, err
	}
	parScrub, parRec, err := measure(false)
	if err != nil {
		return res, err
	}
	// Table 2: 282.5 / 24.1 = 11.7x aggregate over a single drive.
	res.Metrics = []Metric{
		{Name: "tray scrub, serial walk", Paper: 0, Measured: serScrub, Unit: "s (12 discs one drive at a time)"},
		{Name: "tray scrub, parallel crew", Paper: 0, Measured: parScrub, Unit: "s (one reader per drive)"},
		{Name: "scrub speedup", Paper: 11.7, Measured: serScrub / parScrub, Unit: "x (Table 2 aggregate bound)"},
		{Name: "image recovery, serial walk", Paper: 0, Measured: serRec, Unit: "s (k survivors + parity serially)"},
		{Name: "image recovery, parallel crew", Paper: 0, Measured: parRec, Unit: "s"},
		{Name: "recovery speedup", Paper: 11.7, Measured: serRec / parRec, Unit: "x (Table 2 aggregate bound)"},
	}
	return res, nil
}

// serialWalk times the serial reference walks over the tray loaded in group
// gi: a parity verify of the whole tray, then the recovery of /pr/f00's image
// into a fresh buffer slot, reading one disc at a time.
func serialWalk(p *sim.Proc, fs *olfs.FS, tray rack.TrayID, gi int) (scrub, recover float64, err error) {
	drives := fs.Library().Groups[gi].Drives
	views := make([]image.Backend, len(drives))
	for i, d := range drives {
		views[i] = optical.ImageView{Drive: d}
	}
	length := int64(0)
	for _, id := range fs.Cat.ImagesOnTray(tray) {
		if addr, ok := fs.Cat.Locate(id); ok && addr.Len > length {
			length = addr.Len
		}
	}
	k := fs.Config().DataDiscs
	data, parity := views[:k], views[k:k+fs.Config().ParityDiscs]
	start := p.Now()
	if _, err := image.VerifyParity(p, data, parity, length); err != nil {
		return 0, 0, err
	}
	scrub = (p.Now() - start).Seconds()
	ix, err := fs.MV.Stat(p, "/pr/f00")
	if err != nil {
		return 0, 0, err
	}
	addr, _ := fs.Cat.Locate(ix.Current().Parts[0])
	survivors := append([]image.Backend(nil), data...)
	survivors[addr.Pos] = nil
	start = p.Now()
	nb, err := fs.Buckets.OpenRaw(p, length)
	if err != nil {
		return 0, 0, err
	}
	out := make([]image.Backend, k)
	out[addr.Pos] = nb.Backend()
	if err := image.Recover(p, survivors, parity, out, length); err != nil {
		return 0, 0, err
	}
	recover = (p.Now() - start).Seconds()
	return scrub, recover, fs.Buckets.Discard(nb)
}
