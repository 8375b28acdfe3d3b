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

// IngestBench is the write-path benchmark: a closed-loop ingest workload
// driven against the burn pipeline at its two set sizes —
//
//	single-image   one data image per tray trip (sensitivity baseline)
//	per-set        one full image set per trip (the shipped pipeline)
//
// The closed loop offers far more than the burners can drain (each worker
// issues its next write the moment the previous one is acknowledged, and
// the disk buffer absorbs writes orders of magnitude faster than the
// optical drain), so both legs run in sustained overload — the regime
// where admission control must keep the buffer bounded and ack latency
// finite. The headline comparisons: per-set burn throughput vs the
// single-image baseline (mechanical amortization), and the p99 ack latency
// bound under ≥2x overload (deadline-aware shedding).
func IngestBench() (Result, error) { return ingestBench(4 * time.Hour) }

// IngestSmoke is the CI variant: same pipeline, short horizon.
func IngestSmoke() (Result, error) { return ingestBench(45 * time.Minute) }

func ingestBench(horizon time.Duration) (Result, error) {
	res := Result{
		ID:    "ingest",
		Title: "Closed-loop ingest: per-set burns x admission control",
	}
	single, err := runIngest(writepath.BatchConfig{SingleImage: true}, horizon)
	if err != nil {
		return res, fmt.Errorf("single-image: %w", err)
	}
	set, err := runIngest(writepath.BatchConfig{}, horizon)
	if err != nil {
		return res, fmt.Errorf("per-set: %w", err)
	}
	res.Series = map[string][]Point{
		"ack p99 ms single-image": {{X: 0, Y: float64(single.ackP99.Milliseconds())}},
		"burned MB single-image":  {{X: 0, Y: single.burnedBytes / 1e6}},
		"ack p99 ms per-set":      {{X: 0, Y: float64(set.ackP99.Milliseconds())}},
		"burned MB per-set":       {{X: 0, Y: set.burnedBytes / 1e6}},
	}

	drainSet := set.burnedBytes / horizon.Seconds()
	drainSingle := single.burnedBytes / horizon.Seconds()
	speedup := 0.0
	if drainSingle > 0 {
		speedup = drainSet / drainSingle
	}
	offered := set.offeredBytes / horizon.Seconds()
	overload := 0.0
	if drainSet > 0 {
		overload = offered / drainSet
	}
	res.Metrics = []Metric{
		{Name: "burn throughput, single-image", Paper: 0, Measured: drainSingle / 1e6, Unit: "MB/s (ablation baseline)"},
		{Name: "burn throughput, per-set", Paper: 0, Measured: drainSet / 1e6, Unit: "MB/s"},
		{Name: "per-set speedup vs single-image", Paper: 1.5, Measured: speedup, Unit: "x (acceptance: >= 1.5)"},
		{Name: "offered/drain overload factor", Paper: 2, Measured: overload, Unit: "x (closed loop; acceptance: >= 2)"},
		{Name: "p99 ack latency under overload", Paper: 0, Measured: set.ackP99.Seconds(), Unit: "s (bounded by admission MaxWait)"},
		{Name: "max ack latency under overload", Paper: 0, Measured: set.ackMax.Seconds(), Unit: "s"},
		{Name: "acked writes (per-set)", Paper: 0, Measured: float64(set.acked), Unit: "writes"},
		{Name: "shed writes (per-set)", Paper: 0, Measured: float64(set.shed), Unit: "writes (all ErrOverload)"},
		{Name: "peak buffer inflight / capacity", Paper: 0, Measured: set.peakPct, Unit: "% (never exceeds 100)"},
	}
	res.Notes = "closed loop: 4 workers, 256KB writes, next write issued on ack; " +
		"admission 64MB capacity, deadline shedding at MaxWait; burns fully mechanical"
	return res, nil
}

// ingestRun is one leg's measured outcome.
type ingestRun struct {
	acked        int
	shed         int
	offeredBytes float64 // attempted payload bytes, acked or shed
	burnedBytes  float64 // data bytes placed on disc by the horizon
	ackP99       time.Duration
	ackMax       time.Duration
	peakPct      float64
}

// runIngest drives the closed loop against one burn set size.
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
