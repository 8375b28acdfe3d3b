package experiments

import (
	"fmt"
	"time"

	"ros/internal/blockdev"
	"ros/internal/cluster"
	"ros/internal/extfs"
	"ros/internal/fsbench"
	"ros/internal/fuse"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/plc"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
	"ros/internal/udf"
)

// AblationTieredBuffer quantifies §3.3's core design decision: the disk tier
// acknowledges writes in milliseconds, while a bufferless design would hold
// the client until the data is burned (minutes to hours).
func AblationTieredBuffer() (Result, error) {
	res := Result{ID: "ablate-buffer", Title: "Tiered disk buffer vs synchronous burn (§3.3)"}
	bed, err := NewBed(cluster.StackConfig{FS: olfs.Config{
		DataDiscs: 2, ParityDiscs: 1, AutoBurn: false, BurnStagger: 5 * time.Second,
	}})
	if err != nil {
		return res, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	var buffered, synchronous time.Duration
	err = bed.Run(func(p *sim.Proc) error {
		start := p.Now()
		if err := fs.WriteFile(p, "/ab/buffered.dat", pat(1<<20, 1)); err != nil {
			return err
		}
		buffered = p.Now() - start
		// Bufferless: the ack waits for the full burn pipeline.
		start = p.Now()
		if err := fs.WriteFile(p, "/ab/sync.dat", pat(1<<20, 2)); err != nil {
			return err
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		synchronous = p.Now() - start
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "buffered write ack", Paper: 0.053, Measured: buffered.Seconds(), Unit: "s (paper's 53ms NAS write as bound)"},
		{Name: "synchronous-burn write ack", Paper: 700, Measured: synchronous.Seconds(), Unit: "s (load+burn critical path)"},
		{Name: "buffering speedup", Paper: 10000, Measured: synchronous.Seconds() / buffered.Seconds(), Unit: "x (order of magnitude)"},
	}
	return res, nil
}

// AblationFuseChunk reproduces §4.8's big_writes motivation: default 4 KB
// FUSE flushes vs the 128 KB big_writes mount option.
func AblationFuseChunk() (Result, error) {
	res := Result{ID: "ablate-fusechunk", Title: "FUSE big_writes (128KB) vs default 4KB flush (§4.8)"}
	measure := func(opts fuse.Options) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		disk := blockdev.New(env, 2<<30, blockdev.HDDProfile())
		inner := extfs.New(env, pagecache.New(env, disk, pagecache.Ext4Rates()))
		fs := fuse.Wrap(inner, opts)
		var mbps float64
		var err error
		env.Go("t", func(p *sim.Proc) {
			var r fsbench.Result
			r, err = fsbench.SingleStreamWrite(p, fs, "/f", 128<<20, 1<<20)
			mbps = r.ThroughputMBps()
		})
		env.Run()
		return mbps, err
	}
	big, err := measure(fuse.DefaultOptions())
	if err != nil {
		return res, err
	}
	small, err := measure(fuse.SmallWriteOptions())
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "write throughput, big_writes", Paper: 482, Measured: big, Unit: "MB/s"},
		{Name: "write throughput, 4KB flushes", Paper: 100, Measured: small, Unit: "MB/s (paper: 'frequent switches and significant overheads')"},
		{Name: "big_writes speedup", Paper: 4.8, Measured: big / small, Unit: "x"},
	}
	return res, nil
}

// AblationReadPolicy compares §4.8's two policies for a read that arrives
// while every drive group is burning: wait for the burn vs interrupt it and
// resume in append mode.
func AblationReadPolicy() (Result, error) {
	res := Result{ID: "ablate-readpolicy", Title: "All-drives-burning read: wait vs interrupt-and-append (§4.8)"}
	waitLat, _, err := readDuringBurn(olfs.WaitForBurn, 5*time.Second, 30*time.Second)
	if err != nil {
		return res, err
	}
	intLat, resumes, err := readDuringBurn(olfs.InterruptBurn, 5*time.Second, 30*time.Second)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "read latency, wait policy", Paper: 800, Measured: waitLat, Unit: "s (residual burn + swap; paper: 'minutes to more than an hour')"},
		{Name: "read latency, interrupt policy", Paper: 160, Measured: intLat, Unit: "s (unload + load + read)"},
		{Name: "interrupted burns resumed in append mode", Paper: 1, Measured: float64(resumes), Unit: ""},
	}
	return res, nil
}

// readDuringBurn times, under policy, a read of a burned array that arrives
// while a second 2+1 array burns on the only drive group: after the given
// time from its first disc starting, with discs starting stagger apart (0 is
// olfs's default). It also returns olfs.burn_resumes.
func readDuringBurn(policy olfs.ReadPolicy, stagger, after time.Duration) (readLat float64, resumes int64, err error) {
	bed, err := NewBed(cluster.StackConfig{DriveGroups: 1, FS: olfs.Config{
		DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
		RecycleAfterBurn: true, BurnStagger: stagger,
		ReadPolicy: policy,
	}})
	if err != nil {
		return 0, 0, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	err = bed.Run(func(p *sim.Proc) error {
		// Burn an array holding the target file.
		if err := fs.WriteFile(p, "/rp/cold.dat", pat(256<<10, 1)); err != nil {
			return err
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		// Start another burn occupying the single group.
		for i := 0; i < 2; i++ {
			if err := fs.WriteFile(p, fmt.Sprintf("/rp/next%d.dat", i), pat(256<<10, byte(i+2))); err != nil {
				return err
			}
			if err := fs.Sync(p); err != nil {
				return err
			}
		}
		burnDone, err := fs.FlushAndBurn(p)
		if err != nil {
			return err
		}
		for !allGroupsBurning(fs.Library()) {
			p.Sleep(time.Second)
		}
		p.Sleep(after)
		start := p.Now()
		if _, err := fs.ReadFile(p, "/rp/cold.dat"); err != nil {
			return err
		}
		readLat = (p.Now() - start).Seconds()
		if _, err := burnDone.Wait(p); err != nil {
			return err
		}
		return nil
	})
	return readLat, fs.Obs().Counter("olfs.burn_resumes").Value(), err
}

// AblationForepart measures §4.8's forepart-data-stored mechanism: time to
// first byte on a roller miss with and without the 256 KB forepart in MV.
func AblationForepart() (Result, error) {
	res := Result{ID: "ablate-forepart", Title: "Forepart-in-MV first-byte latency (§4.8)"}
	measure := func(forepart bool) (float64, error) {
		bed, err := NewBed(cluster.StackConfig{FS: olfs.Config{
			DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
			RecycleAfterBurn: true, BurnStagger: 5 * time.Second,
			Forepart: forepart,
		}})
		if err != nil {
			return 0, err
		}
		defer bed.Env.Close()
		fs := bed.FS
		var lat float64
		err = bed.Run(func(p *sim.Proc) error {
			if err := fs.WriteFile(p, "/fp/f.dat", pat(512<<10, 3)); err != nil {
				return err
			}
			c, err := fs.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
			// A roller miss: the burned array back in its tray.
			if err := fs.UnloadIdle(p); err != nil {
				return err
			}
			start := p.Now()
			if _, err := fs.ReadFirstByte(p, "/fp/f.dat"); err != nil {
				return err
			}
			lat = (p.Now() - start).Seconds()
			return nil
		})
		return lat, err
	}
	with, err := measure(true)
	if err != nil {
		return res, err
	}
	without, err := measure(false)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "first byte with forepart", Paper: 0.002, Measured: with, Unit: "s (paper: 'within 2 ms')"},
		{Name: "first byte without forepart", Paper: 70.5, Measured: without, Unit: "s (mechanical fetch)"},
	}
	return res, nil
}

// AblationReadCache quantifies the RC design (§4.1): keeping burned images
// resident in the buffer turns re-reads into millisecond buffer hits instead
// of mechanical fetches. RC has two halves, retention after a burn and a fill
// on fetch; the ablation switches the first off, and the fetch it then pays
// is the one that fills the cache for every later read of the image.
func AblationReadCache() (Result, error) {
	res := Result{
		ID:    "ablate-readcache",
		Title: "Read cache of burned images (§4.1)",
		Notes: "without RC the first re-read fetches the tray; that read copies the image back into the buffer, so later re-reads are buffer hits again",
	}
	measure := func(recycle bool) (float64, error) {
		bed, err := NewBed(cluster.StackConfig{FS: olfs.Config{
			DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
			RecycleAfterBurn: recycle, BurnStagger: 5 * time.Second,
		}})
		if err != nil {
			return 0, err
		}
		defer bed.Env.Close()
		fs := bed.FS
		var lat float64
		err = bed.Run(func(p *sim.Proc) error {
			if err := fs.WriteFile(p, "/rc/f.dat", pat(256<<10, 4)); err != nil {
				return err
			}
			c, err := fs.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
			// Without RC the re-read is a roller miss: the burned array
			// back in its tray.
			if err := fs.UnloadIdle(p); err != nil {
				return err
			}
			start := p.Now()
			if _, err := fs.ReadFile(p, "/rc/f.dat"); err != nil {
				return err
			}
			lat = (p.Now() - start).Seconds()
			return nil
		})
		return lat, err
	}
	cached, err := measure(false)
	if err != nil {
		return res, err
	}
	evicted, err := measure(true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "re-read with RC (buffer hit)", Paper: 0.002, Measured: cached, Unit: "s"},
		{Name: "re-read without RC (mechanical fetch)", Paper: 70.5, Measured: evicted, Unit: "s"},
	}
	return res, nil
}

// AblationUniquePath measures §4.4's trade-off: embedding the full ancestor
// directory chain in every image costs some image space but keeps every disc
// self-descriptive.
func AblationUniquePath() (Result, error) {
	res := Result{ID: "ablate-uniquepath", Title: "Unique file path directory redundancy (§4.4)"}
	env := sim.NewEnv()
	defer env.Close()
	store1 := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	store2 := blockdev.New(env, 64<<20, blockdev.SSDProfile())
	var deepUsed, flatUsed int64
	var err error
	env.Go("t", func(p *sim.Proc) {
		deep, e := udf.Format(p, store1, [16]byte{1}, "deep")
		if e != nil {
			err = e
			return
		}
		flat, e := udf.Format(p, store2, [16]byte{2}, "flat")
		if e != nil {
			err = e
			return
		}
		for i := 0; i < 100; i++ {
			data := pat(4096, byte(i))
			if e := deep.WriteFile(p, fmt.Sprintf("/archive/project-%d/year/month/file%03d.dat", i%10, i), data); e != nil {
				err = e
				return
			}
			if e := flat.WriteFile(p, fmt.Sprintf("/f%03d.dat", i), data); e != nil {
				err = e
				return
			}
		}
		deepUsed, flatUsed = deep.UsedBytes(), flat.UsedBytes()
	})
	env.Run()
	if err != nil {
		return res, err
	}
	overhead := float64(deepUsed-flatUsed) / float64(flatUsed) * 100
	res.Metrics = []Metric{
		{Name: "image bytes, unique-path directories", Paper: 0, Measured: float64(deepUsed) / 1024, Unit: "KB"},
		{Name: "image bytes, flat namespace", Paper: 0, Measured: float64(flatUsed) / 1024, Unit: "KB"},
		{Name: "directory redundancy overhead", Paper: 10, Measured: overhead, Unit: "% (paper: 'slightly increases directory data')"},
	}
	res.Notes = "in exchange every disc is independently recoverable (the RecoverNamespace path)"
	return res, nil
}

// AblationOverlapScheduling measures §3.2's roller/arm parallel scheduling:
// overlapping rotation and fan-out with the collect phase shortens unload.
func AblationOverlapScheduling() (Result, error) {
	res := Result{ID: "ablate-overlap", Title: "Parallel roller/arm scheduling (§3.2)"}
	measure := func(overlap bool) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		lib, err := rack.New(env, rack.Config{
			Rollers: 1, DriveGroups: 1, Media: optical.Media25, Overlap: overlap,
		})
		if err != nil {
			return 0, err
		}
		var unload float64
		env.Go("t", func(p *sim.Proc) {
			id := rack.TrayID{Roller: 0, Layer: 40, Slot: 3}
			if err = lib.LoadArray(p, id, 0); err != nil {
				return
			}
			if _, err = lib.Rollers[0].Ctl.Exec(p, plc.Command{Op: plc.OpRotate, Args: []int{0}}); err != nil {
				return
			}
			start := p.Now()
			if err = lib.UnloadArray(p, 0, nil); err != nil {
				return
			}
			unload = (p.Now() - start).Seconds()
		})
		env.Run()
		return unload, err
	}
	serial, err := measure(false)
	if err != nil {
		return res, err
	}
	overlapped, err := measure(true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "unload, serial scheduling", Paper: 84, Measured: serial, Unit: "s"},
		{Name: "unload, overlapped scheduling", Paper: 81, Measured: overlapped, Unit: "s"},
		{Name: "saving", Paper: 3, Measured: serial - overlapped, Unit: "s (paper: 'save up to almost 10 seconds' across the full convey)"},
	}
	return res, nil
}

// AblationStreamIsolation demonstrates §4.7's four-concurrent-streams
// concern: a second independent RAID volume isolates burn-read traffic from
// foreground writes.
func AblationStreamIsolation() (Result, error) {
	res := Result{ID: "ablate-streams", Title: "Multiple independent RAID volumes for concurrent streams (§4.7)"}
	// Shared: writer and a parity-style reader on one array. Isolated: each
	// has its own array.
	measure := func(isolated bool) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		mk := func() *pagecache.Volume {
			hdds := make([]blockdev.Device, 7)
			for i := range hdds {
				hdds[i] = blockdev.New(env, 1<<30, blockdev.HDDProfile())
			}
			arr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
			if err != nil {
				panic(err)
			}
			return pagecache.New(env, arr, pagecache.Ext4Rates())
		}
		volA := mk()
		volB := volA
		if isolated {
			volB = mk()
		}
		// Seed volB's backing store region that the reader will scan.
		var writerSec float64
		done := sim.NewCompletion[struct{}](env)
		env.Go("reader", func(p *sim.Proc) {
			// Parity-maker style stream: large sequential backend reads.
			buf := make([]byte, 1<<20)
			limit := volB.Backend().Size() - int64(len(buf))
			for off := int64(0); off < 256<<20; off += int64(len(buf)) {
				if err := volB.Backend().ReadAt(p, buf, off%limit); err != nil {
					break
				}
			}
			done.Resolve(struct{}{}, nil)
		})
		env.Go("writer", func(p *sim.Proc) {
			start := p.Now()
			buf := pat(1<<20, 9)
			for off := int64(0); off < 128<<20; off += int64(len(buf)) {
				if err := volA.WriteAt(p, buf, off); err != nil {
					break
				}
			}
			volA.Sync(p)
			writerSec = (p.Now() - start).Seconds()
		})
		env.Run()
		return writerSec, nil
	}
	shared, err := measure(false)
	if err != nil {
		return res, err
	}
	isolated, err := measure(true)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "write+sync time, shared volume", Paper: 0, Measured: shared, Unit: "s"},
		{Name: "write+sync time, isolated volumes", Paper: 0, Measured: isolated, Unit: "s"},
		{Name: "interference slowdown", Paper: 1.5, Measured: shared / isolated, Unit: "x (shape: shared > isolated)"},
	}
	return res, nil
}

// Ablations runs all ablation experiments.
func Ablations() ([]Result, error) {
	runs := []func() (Result, error){
		AblationTieredBuffer, AblationFuseChunk, AblationReadPolicy,
		AblationForepart, AblationReadCache, AblationUniquePath,
		AblationOverlapScheduling, AblationStreamIsolation,
		AblationDirectWrite, AblationScheduler, AblationParallelRead,
	}
	var out []Result
	for _, fn := range runs {
		r, err := fn()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
