package experiments

import (
	"fmt"
	"time"

	"ros/internal/optical"
	"ros/internal/sim"
)

// Fig8 reproduces the single-drive 25 GB recording curve: speed ramps from
// ~4X to ~12X across the disc, averaging 8.2X over 675 s.
func Fig8() (Result, error) {
	res := Result{ID: "fig8", Title: "Single-drive 25GB recording curve (§5.4)"}
	env := sim.NewEnv()
	defer env.Close()
	dr := optical.NewDrive(env, "d0", nil)
	disc := optical.NewDisc("x", optical.Media25)
	var rep optical.BurnReport
	var curve []Point
	var err error
	env.Go("t", func(p *sim.Proc) {
		if err = dr.Load(p, disc); err != nil {
			return
		}
		rep, err = dr.Burn(p, nil, optical.BurnOptions{
			OnSample: func(s optical.SpeedSample) {
				curve = append(curve, Point{X: s.Progress * 100, Y: s.SpeedX})
			},
		})
	})
	env.Run()
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "total recording time", Paper: 675, Measured: rep.Duration.Seconds(), Unit: "s"},
		{Name: "average recording speed", Paper: 8.2, Measured: rep.AvgSpeedX, Unit: "X"},
		{Name: "initial speed", Paper: 4.0, Measured: curve[0].Y, Unit: "X (fig axis; text cites 1.6X inner)"},
		{Name: "final speed", Paper: 12.0, Measured: curve[len(curve)-1].Y, Unit: "X"},
	}
	res.Series = map[string][]Point{"speedX vs progress%": curve}
	return res, nil
}

// Fig9 reproduces the 12-drive aggregate burn of a 25 GB disc array:
// staggered starts and the shared buffer-to-drive path cap the peak near
// 380 MB/s, average ~268 MB/s, completing in ~1146 s.
func Fig9() (Result, error) {
	res := Result{ID: "fig9", Title: "Aggregate 12-drive 25GB array burn (§5.4)"}
	env := sim.NewEnv()
	defer env.Close()
	sharer := optical.NewSharer(env, 380e6)
	const stagger = 38 * time.Second
	perDrive := make([][]tsample, 12)
	var reports []optical.BurnReport
	var firstErr error
	for i := 0; i < 12; i++ {
		i := i
		dr := optical.NewDrive(env, fmt.Sprintf("d%d", i), sharer)
		disc := optical.NewDisc(fmt.Sprintf("x%d", i), optical.Media25)
		env.Go("burner", func(p *sim.Proc) {
			if err := dr.Load(p, disc); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			p.Sleep(time.Duration(i) * stagger)
			rep, err := dr.Burn(p, nil, optical.BurnOptions{
				OnSample: func(s optical.SpeedSample) {
					perDrive[i] = append(perDrive[i], tsample{t: p.Now(), v: s.SpeedX * optical.BluRay1X})
				},
			})
			if err != nil && firstErr == nil {
				firstErr = err
			}
			reports = append(reports, rep)
		})
	}
	env.Run()
	if firstErr != nil {
		return res, firstErr
	}
	total := env.Now() - 3500*time.Millisecond // exclude load phase
	// Build the aggregate-throughput series on a 10 s grid.
	var agg []Point
	peak := 0.0
	for t := time.Duration(0); t <= env.Now(); t += 10 * time.Second {
		sum := 0.0
		for i := range perDrive {
			sum += rateAt(perDrive[i], t)
		}
		if sum > peak {
			peak = sum
		}
		agg = append(agg, Point{X: t.Seconds(), Y: sum / 1e6})
	}
	var totalBytes float64 = 12 * 25e9
	avg := totalBytes / total.Seconds()
	res.Metrics = []Metric{
		{Name: "array recording time", Paper: 1146, Measured: total.Seconds(), Unit: "s"},
		{Name: "average aggregate throughput", Paper: 268, Measured: avg / 1e6, Unit: "MB/s"},
		{Name: "peak aggregate throughput", Paper: 380, Measured: peak / 1e6, Unit: "MB/s"},
	}
	res.Series = map[string][]Point{"aggregate MB/s vs time": agg}
	res.Notes = "drive starts staggered ~38 s (per-drive metadata-area formatting + dispatch); shared HBA/buffer path capped at 380 MB/s"
	return res, nil
}

// tsample is one timestamped rate sample.
type tsample struct {
	t time.Duration
	v float64
}

// rateAt returns the drive's instantaneous rate at time t from its samples.
// A drive is considered finished ~2 s after its last sample (burn
// chunks are ~1.5 s apart).
func rateAt(s []tsample, t time.Duration) float64 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].t <= t {
			if i == len(s)-1 && t > s[i].t+2*time.Second {
				return 0 // finished
			}
			return s[i].v
		}
	}
	return 0
}

// Fig10 reproduces the single-drive 100 GB recording curve: ~6X constant
// with fail-safe decelerations to 4X, averaging 5.9X over 3757 s.
func Fig10() (Result, error) {
	res := Result{ID: "fig10", Title: "Single-drive 100GB recording curve (§5.4)"}
	env := sim.NewEnv()
	defer env.Close()
	env.Seed(17)
	dr := optical.NewDrive(env, "d0", nil)
	disc := optical.NewDisc("x", optical.Media100)
	var rep optical.BurnReport
	var curve []Point
	dips := 0
	var err error
	env.Go("t", func(p *sim.Proc) {
		if err = dr.Load(p, disc); err != nil {
			return
		}
		rep, err = dr.Burn(p, nil, optical.BurnOptions{
			OnSample: func(s optical.SpeedSample) {
				curve = append(curve, Point{X: s.Progress * 100, Y: s.SpeedX})
				if s.SpeedX < 5 {
					dips++
				}
			},
		})
	})
	env.Run()
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "total recording time", Paper: 3757, Measured: rep.Duration.Seconds(), Unit: "s"},
		{Name: "average recording speed", Paper: 5.9, Measured: rep.AvgSpeedX, Unit: "X"},
		{Name: "nominal speed", Paper: 6.0, Measured: maxY(curve), Unit: "X"},
		{Name: "fail-safe dip speed", Paper: 4.0, Measured: minY(curve), Unit: "X"},
		{Name: "fail-safe dips observed", Paper: 7, Measured: float64(dips), Unit: "count (paper: several)"},
	}
	res.Series = map[string][]Point{"speedX vs progress%": curve}
	return res, nil
}

func maxY(pts []Point) float64 {
	m := pts[0].Y
	for _, p := range pts {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

func minY(pts []Point) float64 {
	m := pts[0].Y
	for _, p := range pts {
		if p.Y < m {
			m = p.Y
		}
	}
	return m
}
