package experiments

import (
	"fmt"
	"time"

	"ros/internal/cluster"
	"ros/internal/image"
	"ros/internal/olfs"
	"ros/internal/rack"
	"ros/internal/sim"
)

// Table1 reproduces "Read latency from different file locations": the tier
// ladder from disk bucket (1 ms) through buffered image (2 ms), disc in
// drive (0.223 s), disc array fetched with free drives (70.553 s), fetched
// after evicting an idle array (155.037 s), and the all-drives-burning case
// ("minutes").
func Table1() (Result, error) {
	res := Result{
		ID:    "table1",
		Title: "Read latency by file location (§5.2)",
		Notes: "rows 1-3 isolate the data path (index already resolved), as in the paper's location-latency table; rows 4-6 include the mechanical fetch",
	}
	bed, err := NewBed(cluster.StackConfig{
		FS: olfs.Config{
			DataDiscs:        2,
			ParityDiscs:      1,
			AutoBurn:         false,
			RecycleAfterBurn: true,
			BurnStagger:      5 * time.Second,
			ReadPolicy:       olfs.WaitForBurn,
		},
	})
	if err != nil {
		return res, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	var latBucket, latImage, latDrive, latFree, latSwap, latBusy time.Duration
	err = bed.Run(func(p *sim.Proc) error {
		measure := func(path string) (time.Duration, error) {
			start := p.Now()
			if _, err := fs.ReadLocated(p, path); err != nil {
				return 0, fmt.Errorf("read %s: %w", path, err)
			}
			return p.Now() - start, nil
		}
		// Row 1: file in the open bucket.
		if err := fs.WriteFile(p, "/t1/bucket.dat", pat(1024, 1)); err != nil {
			return err
		}
		var err error
		if latBucket, err = measure("/t1/bucket.dat"); err != nil {
			return err
		}
		// Row 2: file in a sealed (still buffered) disc image.
		if err := fs.Sync(p); err != nil {
			return err
		}
		if latImage, err = measure("/t1/bucket.dat"); err != nil {
			return err
		}

		// Burn a first array holding two files on different discs.
		if err := fs.WriteFile(p, "/t1/discA.dat", pat(1024, 2)); err != nil {
			return err
		}
		if err := fs.Sync(p); err != nil {
			return err
		}
		if err := fs.WriteFile(p, "/t1/discB.dat", pat(1024, 3)); err != nil {
			return err
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		// Row 4: disc array in the roller, a drive group free (~70.5 s). The
		// burned array stays in its drives until evicted; put it back first.
		if err := fs.UnloadIdle(p); err != nil {
			return err
		}
		start := p.Now()
		if _, err := fs.ReadFile(p, "/t1/discA.dat"); err != nil {
			return err
		}
		latFree = p.Now() - start
		// Row 3: another disc of the now-loaded array: data-path only.
		// Warm the target drive (spin-up is charged on first access).
		if _, err := fs.ReadFirstByte(p, "/t1/discB.dat"); err != nil {
			return err
		}
		if latDrive, err = measure("/t1/discB.dat"); err != nil {
			return err
		}

		// Row 5: both groups hold idle arrays; a third tray's data needs an
		// unload + load (~155 s). Burn two more arrays so both groups end up
		// occupied, then read from the first (now back in the roller).
		for set := 0; set < 2; set++ {
			for i := 0; i < 2; i++ {
				if err := fs.WriteFile(p, fmt.Sprintf("/t1/set%d-%d.dat", set, i), pat(2048, byte(set*2+i+4))); err != nil {
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
		}
		// Occupy both groups with arrays that do NOT hold discA, so its read
		// below must swap one of them out. Start from every array home.
		if err := fs.UnloadIdle(p); err != nil {
			return err
		}
		ixA, ok := fs.MV.Lookup("/t1/discA.dat")
		if !ok {
			return fmt.Errorf("discA index missing")
		}
		idA := ixA.Current().Parts[0]
		addrA, ok := fs.Cat.Locate(idA)
		if !ok {
			return fmt.Errorf("discA not burned")
		}
		var others []rack.TrayID
		for _, tr := range fs.Cat.Trays(image.DAUsed) {
			if tr != addrA.Tray {
				others = append(others, tr)
			}
		}
		if len(others) < 2 {
			return fmt.Errorf("need 2 non-discA trays, got %d", len(others))
		}
		if err := fs.PrefetchTray(p, others[0], 0); err != nil {
			return err
		}
		if err := fs.PrefetchTray(p, others[1], 1); err != nil {
			return err
		}
		// Row 4's read copied discA's image into the read cache; drop the
		// copy so this read pays the swap the row measures.
		if b, ok := fs.Buckets.Resident(idA); ok {
			if err := fs.Buckets.Recycle(p, b); err != nil {
				return err
			}
		}
		start = p.Now()
		if _, err := fs.ReadFile(p, "/t1/discA.dat"); err != nil {
			return err
		}
		latSwap = p.Now() - start

		// Row 6: all drives busy burning. Queue two more burn sets and wait
		// for both groups to be burning, then read cold data.
		for set := 2; set < 4; set++ {
			for i := 0; i < 2; i++ {
				if err := fs.WriteFile(p, fmt.Sprintf("/t1/set%d-%d.dat", set, i), pat(2048, byte(set*2+i+8))); err != nil {
					return err
				}
				if err := fs.Sync(p); err != nil {
					return err
				}
			}
			if _, err := fs.FlushAndBurn(p); err != nil {
				return err
			}
		}
		for !allGroupsBurning(fs.Library()) {
			p.Sleep(time.Second)
		}
		start = p.Now()
		if _, err := fs.ReadFile(p, "/t1/set0-0.dat"); err != nil {
			return err
		}
		latBusy = p.Now() - start
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "disk bucket", Paper: 0.001, Measured: seconds(latBucket), Unit: "s"},
		{Name: "disc image (buffered)", Paper: 0.002, Measured: seconds(latImage), Unit: "s"},
		{Name: "disc in optical drive", Paper: 0.223, Measured: seconds(latDrive), Unit: "s"},
		{Name: "array in roller, free drives", Paper: 70.553, Measured: seconds(latFree), Unit: "s"},
		{Name: "array in roller, drives idle (swap)", Paper: 155.037, Measured: seconds(latSwap), Unit: "s"},
		{Name: "array in roller, all drives burning", Paper: 300, Measured: seconds(latBusy), Unit: "s (paper: minutes)"},
	}
	return res, nil
}

func allGroupsBurning(lib *rack.Library) bool {
	for _, g := range lib.Groups {
		if !g.AnyBurning() {
			return false
		}
	}
	return true
}
