package experiments

import (
	"time"

	"ros/internal/blockdev"
	"ros/internal/cluster"
	"ros/internal/extfs"
	"ros/internal/fsbench"
	"ros/internal/fuse"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/pagecache"
	"ros/internal/raid"
	"ros/internal/samba"
	"ros/internal/sim"
	"ros/internal/vfs"
)

// fig6Total is the data volume streamed per configuration (large enough to
// amortize per-file metadata, as filebench's singlestream does).
const fig6Total = 256 << 20

// stackResult holds one configuration's measured throughput plus the per-op
// latency histograms (obs) backing the percentile metrics.
type stackResult struct {
	name        string
	read, write float64 // MB/s
	readHist    *obs.Histogram
	writeHist   *obs.Histogram
}

// newExt4 builds a fresh ext4-on-cached-RAID-5 baseline store.
func newExt4(env *sim.Env) *extfs.FS {
	hdds := make([]blockdev.Device, 7)
	for i := range hdds {
		hdds[i] = blockdev.New(env, 2<<30, blockdev.HDDProfile())
	}
	arr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
	if err != nil {
		panic(err)
	}
	return extfs.New(env, pagecache.New(env, arr, pagecache.Ext4Rates()))
}

// newOLFSFig6 builds an OLFS bed tuned for throughput measurement (large
// buckets so the stream stays in the PBW path).
func newOLFSFig6() (*Bed, error) {
	return NewBed(cluster.StackConfig{
		BufferSlots: 6,
		BucketBytes: 256 << 20,
		FS: olfs.Config{
			DataDiscs:   2,
			ParityDiscs: 1,
			AutoBurn:    false,
		},
	})
}

// measureStack runs singlestream write then read through fs on env, feeding
// per-request latencies into the named obs histograms.
func measureStack(env *sim.Env, fs vfs.FileSystem, name string) (sr stackResult, err error) {
	sr.name = name
	sr.writeHist = obs.NewHistogram("fig6." + name + ".write.latency")
	sr.readHist = obs.NewHistogram("fig6." + name + ".read.latency")
	done := sim.NewCompletion[struct{}](env)
	env.Go("fig6", func(p *sim.Proc) {
		defer func() { done.Resolve(struct{}{}, err) }()
		var w fsbench.Result
		w, err = fsbench.SingleStreamWrite(p, fs, "/fig6/stream.dat", fig6Total, fsbench.DefaultIOSize)
		if err != nil {
			return
		}
		sr.write = w.ThroughputMBps()
		w.Observe(sr.writeHist)
		var r fsbench.Result
		r, err = fsbench.SingleStreamRead(p, fs, "/fig6/stream.dat", fsbench.DefaultIOSize)
		if err != nil {
			return
		}
		sr.read = r.ThroughputMBps()
		r.Observe(sr.readHist)
	})
	env.Run()
	return sr, err
}

// Fig6 reproduces the five-configuration normalized-throughput comparison:
// ext4+FUSE, ext4+OLFS, samba, samba+FUSE, samba+OLFS against raw ext4
// (1.2 GB/s read, 1.0 GB/s write), filebench singlestream at 1 MB I/O.
func Fig6() (Result, error) {
	res := Result{
		ID:    "fig6",
		Title: "Normalized filebench singlestream throughput, five configurations (§5.3)",
	}
	type cfg struct {
		name  string
		build func() (*sim.Env, vfs.FileSystem, error)
	}
	reval := 600 * time.Microsecond
	configs := []cfg{
		{"ext4", func() (*sim.Env, vfs.FileSystem, error) {
			env := sim.NewEnv()
			return env, newExt4(env), nil
		}},
		{"ext4+FUSE", func() (*sim.Env, vfs.FileSystem, error) {
			env := sim.NewEnv()
			return env, fuse.Wrap(newExt4(env), fuse.DefaultOptions()), nil
		}},
		{"ext4+OLFS", func() (*sim.Env, vfs.FileSystem, error) {
			bed, err := newOLFSFig6()
			if err != nil {
				return nil, nil, err
			}
			return bed.Env, fuse.Wrap(bed.FS, fuse.DefaultOptions()), nil
		}},
		{"samba", func() (*sim.Env, vfs.FileSystem, error) {
			env := sim.NewEnv()
			return env, samba.Wrap(env, newExt4(env), samba.DefaultOptions()), nil
		}},
		{"samba+FUSE", func() (*sim.Env, vfs.FileSystem, error) {
			env := sim.NewEnv()
			o := samba.DefaultOptions()
			o.ReadRevalidate = reval
			return env, samba.Wrap(env, fuse.Wrap(newExt4(env), fuse.DefaultOptions()), o), nil
		}},
		{"samba+OLFS", func() (*sim.Env, vfs.FileSystem, error) {
			bed, err := newOLFSFig6()
			if err != nil {
				return nil, nil, err
			}
			o := samba.DefaultOptions()
			o.ReadRevalidate = reval
			return bed.Env, samba.Wrap(bed.Env, fuse.Wrap(bed.FS, fuse.DefaultOptions()), o), nil
		}},
	}
	results := map[string]stackResult{}
	for _, c := range configs {
		env, fs, err := c.build()
		if err != nil {
			return res, err
		}
		sr, err := measureStack(env, fs, c.name)
		env.Close()
		if err != nil {
			return res, err
		}
		results[c.name] = sr
	}
	base := results["ext4"]
	// Paper's normalized values (§5.3 text + Fig 6 bars).
	paper := map[string][2]float64{ // {read, write} normalized
		"ext4":       {1.0, 1.0},
		"ext4+FUSE":  {0.759, 0.482},
		"ext4+OLFS":  {0.540, 0.433},
		"samba":      {0.311, 0.320},
		"samba+FUSE": {0.25, 0.31}, // bars read off Fig 6; no exact text values
		"samba+OLFS": {0.197, 0.324},
	}
	for _, name := range []string{"ext4", "ext4+FUSE", "ext4+OLFS", "samba", "samba+FUSE", "samba+OLFS"} {
		r := results[name]
		res.Metrics = append(res.Metrics,
			Metric{Name: name + " read (normalized)", Paper: paper[name][0], Measured: r.read / base.read, Unit: ""},
			Metric{Name: name + " write (normalized)", Paper: paper[name][1], Measured: r.write / base.write, Unit: ""},
		)
	}
	so := results["samba+OLFS"]
	res.Metrics = append(res.Metrics,
		Metric{Name: "samba+OLFS read absolute", Paper: 236.1, Measured: so.read, Unit: "MB/s"},
		Metric{Name: "samba+OLFS write absolute", Paper: 323.6, Measured: so.write, Unit: "MB/s"},
		Metric{Name: "ext4 read absolute", Paper: 1200, Measured: base.read, Unit: "MB/s"},
		Metric{Name: "ext4 write absolute", Paper: 1000, Measured: base.write, Unit: "MB/s"},
	)
	// Per-request latency percentiles from the obs histograms (the paper
	// reports only throughput, so Paper stays 0 and tolerance checks skip).
	for _, sr := range []stackResult{base, so} {
		for _, h := range []*obs.Histogram{sr.writeHist, sr.readHist} {
			dir := "write"
			if h == sr.readHist {
				dir = "read"
			}
			res.Metrics = append(res.Metrics,
				Metric{Name: sr.name + " " + dir + " p50", Measured: float64(h.Quantile(0.50)) / 1e6, Unit: "ms"},
				Metric{Name: sr.name + " " + dir + " p95", Measured: float64(h.Quantile(0.95)) / 1e6, Unit: "ms"},
				Metric{Name: sr.name + " " + dir + " p99", Measured: float64(h.Quantile(0.99)) / 1e6, Unit: "ms"},
			)
		}
	}
	res.Notes = "samba+FUSE normalized bars are read off Fig 6 (no exact numbers in the text)"
	return res, nil
}
