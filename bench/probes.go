package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ros/internal/blockdev"
	"ros/internal/bucket"
	"ros/internal/cluster"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
	"ros/internal/writepath"
)

// A probe calls one exported function of one layer in a loop on a bare
// sim.Env and reports host ns and allocations per call. Each names the
// per-layer share it explains: a probe that gets cheaper while its share
// and the end-to-end host metric stay put means the layer was not the cost.
type probe struct {
	Name     string
	Explains string
	N        int
	// Setup builds the layer inside process p and returns the call to time
	// and an optional teardown.
	Setup func(env *sim.Env, p *sim.Proc) (call func(p *sim.Proc, i int) error, done func(), err error)
}

// probeResult is one probe's measurement, with its own span on both clocks.
type probeResult struct {
	Name     string  `json:"name"`
	Explains string  `json:"explains"`
	Calls    int     `json:"calls"`
	NS       float64 `json:"ns_per_call"`
	Allocs   float64 `json:"allocs_per_call"`
	Span     span    `json:"span"`
	Err      string  `json:"error,omitempty"`
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return out
}

func filled(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}

// bufferArray is the write buffer's shape in a rack stack: RAID-5 over seven
// HDDs with 64 KB stripe units.
func bufferArray(env *sim.Env, perDisk int64) (*raid.Array, error) {
	devs := make([]blockdev.Device, 7)
	for i := range devs {
		devs[i] = blockdev.New(env, perDisk, blockdev.HDDProfile())
	}
	return raid.New(env, raid.RAID5, devs, 64*kb)
}

func probeStack(env *sim.Env) (*cluster.Rack, error) {
	return cluster.NewRackStack(env, 0, cluster.StackConfig{
		Rollers: 1, DriveGroups: 2, BufferSlots: 30, BucketBytes: 2 * mb,
		FS: olfs.Config{DataDiscs: 2, ParityDiscs: 1, Trace: obs.TracerConfig{Capacity: -1}},
	})
}

var probes = []probe{
	{"sim.sleep", "sim.cpu_share_pct, runtime.cpu_share_pct", 20000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			return func(p *sim.Proc, i int) error { p.Sleep(time.Microsecond); return nil }, nil, nil
		}},
	{"sim.queue_handoff", "sim.cpu_share_pct, runtime.cpu_share_pct", 10000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			ping, pong := sim.NewQueue[int](env), sim.NewQueue[int](env)
			env.Go("probe-peer", func(pp *sim.Proc) {
				for {
					v, ok := ping.Pop(pp)
					if !ok {
						return
					}
					pong.Push(v)
				}
			})
			return func(p *sim.Proc, i int) error { ping.Push(i); pong.Pop(p); return nil }, ping.Close, nil
		}},
	{"blockdev.write_64k", "blockdev.cpu_share_pct, blockdev.alloc_share_pct", 2000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			d := blockdev.New(env, 256*mb, blockdev.HDDProfile())
			buf := filled(64 * kb)
			return func(p *sim.Proc, i int) error { return d.WriteAt(p, buf, int64(i%4000)*64*kb) }, nil, nil
		}},
	{"raid.write_4k", "raid.alloc_share_pct, raid.cpu_share_pct -> host_kb_per_op on ingest-steady", 1000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a, err := bufferArray(env, 64*mb)
			buf := filled(4 * kb)
			return func(p *sim.Proc, i int) error { return a.WriteAt(p, buf, int64(i)*4*kb) }, nil, err
		}},
	{"raid.write_1m", "raid.cpu_share_pct (full-stripe parity)", 100,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a, err := bufferArray(env, 64*mb)
			buf := filled(1 * mb)
			return func(p *sim.Proc, i int) error { return a.WriteAt(p, buf, int64(i)*mb) }, nil, err
		}},
	{"raid.read_1m", "raid.cpu_share_pct on read-backs", 100,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a, err := bufferArray(env, 64*mb)
			if err != nil {
				return nil, nil, err
			}
			buf := filled(1 * mb)
			for i := 0; i < 16; i++ {
				if err := a.WriteAt(p, buf, int64(i)*mb); err != nil {
					return nil, nil, err
				}
			}
			return func(p *sim.Proc, i int) error { return a.ReadAt(p, buf, int64(i%16)*mb) }, nil, nil
		}},
	{"pagecache.write_64k", "pagecache.cpu_share_pct, pagecache.alloc_share_pct", 1000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a, err := bufferArray(env, 64*mb)
			if err != nil {
				return nil, nil, err
			}
			v := pagecache.New(env, a, pagecache.Ext4Rates())
			buf := filled(64 * kb)
			return func(p *sim.Proc, i int) error { return v.WriteAt(p, buf, int64(i)*64*kb) }, v.Close, nil
		}},
	{"udf.write_file_64k", "udf.cpu_share_pct, udf.alloc_share_pct", 400,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			d := blockdev.New(env, 64*mb, blockdev.SSDProfile())
			v, err := udf.Format(p, d, [16]byte{1}, "probe")
			nm := names("/probe/f", 401)
			buf := filled(64 * kb)
			return func(p *sim.Proc, i int) error { return v.WriteFile(p, nm[i], buf) }, nil, err
		}},
	{"udf.finalize", "udf.cpu_share_pct at bucket seal", 200,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			d := blockdev.New(env, 256*mb, blockdev.SSDProfile())
			vols := make([]*udf.Volume, 201)
			for i := range vols {
				v, err := udf.Format(p, udf.NewSlice(d, int64(i)*mb, mb), [16]byte{byte(i), 1}, "probe")
				if err != nil {
					return nil, nil, err
				}
				if err := v.WriteFile(p, "/f", filled(4*kb)); err != nil {
					return nil, nil, err
				}
				vols[i] = v
			}
			return func(p *sim.Proc, i int) error { return vols[i].Finalize(p) }, nil, nil
		}},
	{"mv.mknod", "mv.cpu_share_pct, mv.alloc_share_pct -> mv.ops_per_write", 2000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			v := mv.New(env, blockdev.New(env, 64*mb, blockdev.SSDProfile()), mv.DefaultOpCost)
			nm := names("/probe/d/f", 2001)
			return func(p *sim.Proc, i int) error { _, err := v.Mknod(p, nm[i], false); return err }, nil, nil
		}},
	{"mv.stat", "mv.cpu_share_pct -> mv.ops_per_read", 2000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			v := mv.New(env, blockdev.New(env, 64*mb, blockdev.SSDProfile()), mv.DefaultOpCost)
			nm := names("/probe/d/f", 500)
			for _, n := range nm {
				if _, err := v.Mknod(p, n, false); err != nil {
					return nil, nil, err
				}
			}
			return func(p *sim.Proc, i int) error { _, err := v.Stat(p, nm[i%500]); return err }, nil, nil
		}},
	{"bucket.open_seal", "udf.cpu_share_pct and pagecache shares per bucket turnover", 100,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a, err := bufferArray(env, 8*mb)
			if err != nil {
				return nil, nil, err
			}
			v := pagecache.New(env, a, pagecache.Ext4Rates())
			m, err := bucket.NewManager(env, v, 2*mb, 8)
			return func(p *sim.Proc, i int) error {
				b, err := m.Open(p)
				if err != nil {
					return err
				}
				if err := m.Seal(p, b); err != nil {
					return err
				}
				return m.Discard(b)
			}, v.Close, err
		}},
	{"image.gen_parity", "image.cpu_share_pct -> image.burn_parity_ms", 40,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			data, parity, err := parityFixture(env, p)
			return func(p *sim.Proc, i int) error { return image.GenerateParity(p, data, parity, 2*mb) }, nil, err
		}},
	{"image.recover_parallel", "image.cpu_share_pct on repair", 40,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			data, parity, err := parityFixture(env, p)
			if err != nil {
				return nil, nil, err
			}
			if err := image.GenerateParity(p, data, parity, 2*mb); err != nil {
				return nil, nil, err
			}
			out := []image.Backend{blockdev.New(env, 2*mb, blockdev.SSDProfile())}
			lost := []image.Backend{nil, data[1]}
			return func(p *sim.Proc, i int) error {
				return image.RecoverParallel(p, lost, nil, parity, out, 2*mb, nil)
			}, nil, nil
		}},
	{"writepath.admit_release", "writepath.admit_ms host side", 20000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			a := writepath.NewAdmission(env, writepath.AdmissionConfig{Enabled: true, CapacityBytes: 64 * mb},
				sched.Config{}, obs.New(env))
			return func(p *sim.Proc, i int) error {
				if err := a.Acquire(p, writepath.Interactive, 64*kb); err != nil {
					return err
				}
				a.Release(writepath.Interactive, 64*kb)
				return nil
			}, nil, nil
		}},
	{"sched.fetch_hit", "olfs.cpu_share_pct on loaded-tray reads", 5000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			r, err := probeStack(env)
			if err != nil {
				return nil, nil, err
			}
			tray := rack.TrayID{}
			if err := r.Lib.LoadArray(p, tray, 0); err != nil {
				return nil, nil, err
			}
			s := r.FS.Sched()
			return func(p *sim.Proc, i int) error {
				if g := s.AcquireFetch(p, sched.Interactive, tray); !g.Hit {
					return fmt.Errorf("tray not reported loaded")
				}
				return nil
			}, r.FS.Stop, nil
		}},
	{"rack.load_unload", "optical.cpu_share_pct and sim shares per tray swap", 50,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			r, err := probeStack(env)
			if err != nil {
				return nil, nil, err
			}
			tray := rack.TrayID{}
			return func(p *sim.Proc, i int) error {
				if err := r.Lib.LoadArray(p, tray, 0); err != nil {
					return err
				}
				return r.Lib.UnloadArray(p, 0, nil)
			}, r.FS.Stop, nil
		}},
	{"optical.burn_2m", "optical.cpu_share_pct -> optical.burn_xfer_ms host side", 20,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			dr := optical.NewDrive(env, "probe", optical.NewSharer(env, 0))
			src := blockdev.New(env, 2*mb, blockdev.SSDProfile())
			if err := src.WriteAt(p, filled(2*mb), 0); err != nil {
				return nil, nil, err
			}
			return func(p *sim.Proc, i int) error {
				if err := dr.Load(p, optical.NewDisc(fmt.Sprintf("probe-%d", i), optical.Media25)); err != nil {
					return err
				}
				if _, err := dr.Burn(p, src, optical.BurnOptions{}); err != nil {
					return err
				}
				_, err := dr.Eject(p)
				return err
			}, nil, nil
		}},
	{"optical.read_1m", "optical.cpu_share_pct -> optical.read_xfer_ms host side", 200,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			dr := optical.NewDrive(env, "probe", optical.NewSharer(env, 0))
			src := blockdev.New(env, 2*mb, blockdev.SSDProfile())
			if err := src.WriteAt(p, filled(2*mb), 0); err != nil {
				return nil, nil, err
			}
			if err := dr.Load(p, optical.NewDisc("probe", optical.Media25)); err != nil {
				return nil, nil, err
			}
			if _, err := dr.Burn(p, src, optical.BurnOptions{}); err != nil {
				return nil, nil, err
			}
			buf := make([]byte, mb)
			return func(p *sim.Proc, i int) error { return dr.ReadAt(p, buf, int64(i%2)*mb) }, nil, nil
		}},
	{"cluster.write_read_64k", "cluster.route_ms host side; every layer once per replica", 150,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			c, err := cluster.New(env, cluster.Config{Racks: 2, Replicas: 2, Stack: cluster.StackConfig{
				Rollers: 1, DriveGroups: 2, BufferSlots: 30, BucketBytes: 2 * mb, Obs: obs.New(env),
				FS: olfs.Config{DataDiscs: 2, ParityDiscs: 1, Trace: obs.TracerConfig{Capacity: -1}},
			}})
			nm := names("/probe/f", 151)
			buf := filled(64 * kb)
			return func(p *sim.Proc, i int) error {
				if err := c.WriteFile(p, nm[i], buf); err != nil {
					return err
				}
				_, err := c.ReadFile(p, nm[i])
				return err
			}, func() { c.Stop() }, err
		}},
	{"obs.hist_observe", "obs.cpu_share_pct", 100000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			h := obs.New(env).Histogram("probe")
			return func(p *sim.Proc, i int) error { h.Observe(int64(i)); return nil }, nil, nil
		}},
	{"obs.trace_op", "obs.trace_overhead_cpu_pct, obs.trace_overhead_allocs_pct", 20000,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			tr := obs.NewTracer(env, obs.TracerConfig{Capacity: traceJournal})
			return func(p *sim.Proc, i int) error {
				op := tr.StartOp(p, "probe", "probe")
				sp := obs.StartChild(p, "probe.child")
				sp.End(p)
				op.Finish(p, nil)
				return nil
			}, nil, nil
		}},
	{"obs.snapshot", "obs.cpu_share_pct with telemetry on (fleet-mix samples every virtual minute)", 500,
		func(env *sim.Env, p *sim.Proc) (func(*sim.Proc, int) error, func(), error) {
			r, err := probeStack(env)
			if err != nil {
				return nil, nil, err
			}
			return func(p *sim.Proc, i int) error { _ = r.Reg.Snapshot(); return nil }, r.FS.Stop, nil
		}},
}

// parityFixture is two filled 2 MB data images and one blank parity image.
func parityFixture(env *sim.Env, p *sim.Proc) (data, parity []image.Backend, err error) {
	for i := 0; i < 2; i++ {
		d := blockdev.New(env, 2*mb, blockdev.SSDProfile())
		if err := d.WriteAt(p, filled(2*mb), 0); err != nil {
			return nil, nil, err
		}
		data = append(data, d)
	}
	parity = []image.Backend{blockdev.New(env, 2*mb, blockdev.SSDProfile())}
	return data, parity, nil
}

// runProbe times one probe on a fresh environment: call 0 is a warm-up and is
// not timed, calls 1..N are.
func runProbe(pr probe, rec *spanRecorder) probeResult {
	res := probeResult{Name: pr.Name, Explains: pr.Explains, Calls: pr.N}
	env := sim.NewEnv()
	env.Go("probe", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Sprint("panic: ", r)
			}
		}()
		call, done, err := pr.Setup(env, p)
		if done != nil {
			defer done()
		}
		if err != nil {
			res.Err = err.Error()
			return
		}
		if err := call(p, 0); err != nil {
			res.Err = err.Error()
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := rec.start(p, pr.Name, nil)
		start := time.Now()
		for i := 1; i <= pr.N; i++ {
			if err := call(p, i); err != nil {
				res.Err = err.Error()
				break
			}
		}
		elapsed := time.Since(start)
		sp.end(p)
		runtime.ReadMemStats(&m1)
		res.Span = rec.spans[sp.id]
		res.NS = float64(elapsed.Nanoseconds()) / float64(pr.N)
		res.Allocs = float64(m1.Mallocs-m0.Mallocs) / float64(pr.N)
	})
	env.Run()
	return res
}

func runProbes() []probeResult {
	rec := &spanRecorder{}
	out := make([]probeResult, 0, len(probes))
	for _, pr := range probes {
		out = append(out, runProbe(pr, rec))
		runtime.GC()
	}
	return out
}

func probeMetrics(rs []probeResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rs {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "bench: probe %s failed: %s\n", r.Name, r.Err)
		}
		out[r.Name+"_ns"] = r.NS
		out[r.Name+"_allocs"] = r.Allocs
	}
	return out
}

func printProbes(w io.Writer, rs []probeResult) {
	fmt.Fprintf(w, "%-26s %12s %10s %14s  %s\n", "probe", "ns/call", "allocs", "virtual/call", "explains")
	for _, r := range rs {
		if r.Err != "" {
			fmt.Fprintf(w, "%-26s FAILED: %s\n", r.Name, r.Err)
			continue
		}
		virt := time.Duration((r.Span.VEnd - r.Span.VStart) / int64(r.Calls))
		fmt.Fprintf(w, "%-26s %12.0f %10.1f %14v  %s\n", r.Name, r.NS, r.Allocs, virt, r.Explains)
	}
}
