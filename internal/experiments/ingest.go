package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ros/internal/olfs"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// IngestBench is the PR-10 write-path benchmark: a closed-loop ingest
// workload driven against the three burn-batching disciplines —
//
//	single-image   one data image per tray trip (ablation baseline)
//	per-set        one full image set per trip (the legacy pipeline)
//	group-commit   several sets back-to-back under one scheduler claim
//
// The closed loop offers far more than the burners can drain (each worker
// issues its next write the moment the previous one is acknowledged, and
// the disk buffer absorbs writes orders of magnitude faster than the
// optical drain), so every leg runs in sustained overload — the regime
// where admission control must keep the buffer bounded and ack latency
// finite. The headline comparisons: batched burn throughput vs the
// single-image baseline (mechanical amortization), and the p99 ack latency
// bound under ≥2x overload (deadline-aware shedding).
func IngestBench() (Result, error) { return ingestBench(4 * time.Hour) }

// IngestSmoke is the CI variant: same pipeline, short horizon.
func IngestSmoke() (Result, error) { return ingestBench(45 * time.Minute) }

func ingestBench(horizon time.Duration) (Result, error) {
	res := Result{
		ID:    "ingest",
		Title: "Closed-loop ingest: burn batching x admission control (PR-10)",
	}
	modes := []struct {
		name  string
		batch writepath.BatchConfig
	}{
		{"single-image", writepath.BatchConfig{SingleImage: true}},
		{"per-set", writepath.BatchConfig{}},
		{"group-commit", writepath.BatchConfig{
			BurnBatchBytes:  16 << 20, // 4 sets of 2 x 2 MB data images
			BurnBatchLinger: 5 * time.Minute,
		}},
	}
	runs := map[string]ingestRun{}
	series := map[string][]Point{}
	for _, m := range modes {
		r, err := runIngest(m.batch, horizon)
		if err != nil {
			return res, fmt.Errorf("%s: %w", m.name, err)
		}
		runs[m.name] = r
		series["ack p99 ms "+m.name] = []Point{{X: 0, Y: float64(r.ackP99.Milliseconds())}}
		series["burned MB "+m.name] = []Point{{X: 0, Y: r.burnedBytes / 1e6}}
	}
	res.Series = series

	single, batch := runs["single-image"], runs["group-commit"]
	drainBatch := batch.burnedBytes / horizon.Seconds()
	drainSingle := single.burnedBytes / horizon.Seconds()
	speedup := 0.0
	if drainSingle > 0 {
		speedup = drainBatch / drainSingle
	}
	offered := batch.offeredBytes / horizon.Seconds()
	overload := 0.0
	if drainBatch > 0 {
		overload = offered / drainBatch
	}
	res.Metrics = []Metric{
		{Name: "burn throughput, single-image", Paper: 0, Measured: drainSingle / 1e6, Unit: "MB/s (ablation baseline)"},
		{Name: "burn throughput, per-set", Paper: 0, Measured: runs["per-set"].burnedBytes / horizon.Seconds() / 1e6, Unit: "MB/s"},
		{Name: "burn throughput, group-commit", Paper: 0, Measured: drainBatch / 1e6, Unit: "MB/s"},
		{Name: "batching speedup vs single-image", Paper: 1.5, Measured: speedup, Unit: "x (acceptance: >= 1.5)"},
		{Name: "offered/drain overload factor", Paper: 2, Measured: overload, Unit: "x (closed loop; acceptance: >= 2)"},
		{Name: "p99 ack latency under overload", Paper: 0, Measured: batch.ackP99.Seconds(), Unit: "s (bounded by admission MaxWait)"},
		{Name: "max ack latency under overload", Paper: 0, Measured: batch.ackMax.Seconds(), Unit: "s"},
		{Name: "acked writes (group-commit)", Paper: 0, Measured: float64(batch.acked), Unit: "writes"},
		{Name: "shed writes (group-commit)", Paper: 0, Measured: float64(batch.shed), Unit: "writes (all ErrOverload)"},
		{Name: "peak buffer inflight / capacity", Paper: 0, Measured: batch.peakPct, Unit: "% (never exceeds 100)"},
	}
	res.Notes = "closed loop: 4 workers, 256KB writes, next write issued on ack; " +
		"admission 64MB capacity, deadline shedding at MaxWait; burns fully mechanical"
	return res, nil
}

// ingestRun is one mode's measured outcome.
type ingestRun struct {
	acked        int
	shed         int
	offeredBytes float64 // attempted payload bytes, acked or shed
	burnedBytes  float64 // data bytes placed on disc by the horizon
	ackP99       time.Duration
	ackMax       time.Duration
	peakPct      float64
}

// runIngest drives the closed loop against one batching discipline.
func runIngest(batch writepath.BatchConfig, horizon time.Duration) (ingestRun, error) {
	const (
		workers   = 4
		writeSize = 256 << 10
		capacity  = 64 << 20
	)
	bed, err := NewBed(BedOptions{
		Groups:      2,
		BufferSlots: 60,
		BucketBytes: 2 << 20,
		BurnCap:     380e6,
		OLFS: olfs.Config{
			DataDiscs:        2,
			ParityDiscs:      1,
			AutoBurn:         true,
			RecycleAfterBurn: true,
			Write: writepath.Config{
				Batch: batch,
				Admission: writepath.AdmissionConfig{
					Enabled:       true,
					CapacityBytes: capacity,
					MaxWait:       2 * time.Minute,
				},
			},
		},
	})
	if err != nil {
		return ingestRun{}, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	type workerOut struct {
		lats  []time.Duration
		acked int
		shed  int
		bytes int64
	}
	var run ingestRun
	err = bed.Run(func(p *sim.Proc) error {
		done := sim.NewQueue[workerOut](bed.Env)
		for w := 0; w < workers; w++ {
			w := w
			bed.Env.Go(fmt.Sprintf("ingest-%d", w), func(wp *sim.Proc) {
				var out workerOut
				seq := 0
				for wp.Now() < horizon {
					path := fmt.Sprintf("/ingest/w%d/f-%06d", w, seq)
					start := wp.Now()
					err := fs.WriteFile(wp, path, pat(writeSize, byte(w*31+seq)))
					out.bytes += writeSize // offered whether acked or shed
					switch {
					case err == nil:
						out.lats = append(out.lats, wp.Now()-start)
						out.acked++
						seq++
					case errors.Is(err, writepath.ErrOverload):
						out.shed++
						wp.Sleep(30 * time.Second) // shed: back off, retry
					default:
						out.shed = -1 // unexpected error: poison the run
						done.Push(out)
						return
					}
				}
				done.Push(out)
			})
		}
		var lats []time.Duration
		for w := 0; w < workers; w++ {
			out, _ := done.Pop(p)
			if out.shed < 0 {
				return fmt.Errorf("worker failed with a non-overload error")
			}
			lats = append(lats, out.lats...)
			run.acked += out.acked
			run.shed += out.shed
			run.offeredBytes += float64(out.bytes)
		}
		// Sample at the horizon; the environment keeps draining afterwards.
		for _, addr := range fs.Cat.DIL {
			if !addr.Parity {
				run.burnedBytes += float64(addr.Len)
			}
		}
		adm := fs.WritePath().Admission()
		run.peakPct = float64(adm.MaxInflightBytes()) * 100 / float64(capacity)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if n := len(lats); n > 0 {
			run.ackP99 = lats[n*99/100]
			run.ackMax = lats[n-1]
		}
		fs.Stop()
		return nil
	})
	return run, err
}
