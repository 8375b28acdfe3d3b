package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"ros/internal/cluster"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/olfs"
	"ros/internal/power"
	"ros/internal/reliability"
	"ros/internal/sim"
	"ros/internal/tco"
)

// MVSize reproduces the §4.2 metadata-volume sizing: a typical JSON index
// file of a few hundred bytes, 15 version entries per index, and ~2.3 TB for
// a billion files plus a billion directories (0.23% of 1 PB).
func MVSize() (Result, error) {
	res := Result{ID: "mvsize", Title: "Metadata volume sizing (§4.2)"}
	ix := mv.Index{
		Path: "/archive/experiments/2016/physics/run-0042/sensor-data.csv",
		Entries: []mv.VersionEntry{
			{Version: 1, Size: 1048576, MTimeNS: 1234567890, Parts: []image.ID{image.NewID(7)}},
			{Version: 2, Size: 2097152, MTimeNS: 2234567890, Parts: []image.ID{image.NewID(8)}},
			{Version: 3, Size: 4194304, MTimeNS: 3234567890, Parts: []image.ID{image.NewID(9)}},
		},
	}
	b, err := json.Marshal(&ix)
	if err != nil {
		return res, err
	}
	one := mv.Index{Path: ix.Path, Entries: ix.Entries[:1]}
	b1, err := json.Marshal(&one)
	if err != nil {
		return res, err
	}
	perEntry := float64(len(b)-len(b1)) / 2
	est := mv.EstimateBytes(1e9, 1e9)
	res.Metrics = []Metric{
		{Name: "typical index file size", Paper: 388, Measured: float64(len(b)), Unit: "bytes (JSON)"},
		{Name: "per version entry", Paper: 40, Measured: perEntry, Unit: "bytes"},
		{Name: "max version entries per index", Paper: 15, Measured: mv.MaxVersionEntries, Unit: ""},
		{Name: "MV for 1B files + 1B dirs", Paper: 2.3, Measured: float64(est) / 1e12, Unit: "TB"},
		{Name: "MV fraction of 1 PB", Paper: 0.23, Measured: float64(est) / 1e15 * 100, Unit: "%"},
	}
	return res, nil
}

// MVRecovery reproduces the §4.2 experiment "ROS took half an hour to
// recover MV from 120 discs": namespace recovery by mechanically scanning
// burned arrays. The simulation burns and scans a 36-disc subset (3 arrays
// of 11+1) and extrapolates linearly to the paper's 120 discs.
func MVRecovery() (Result, error) {
	res := Result{ID: "mvrecover", Title: "MV recovery from discs (§4.2)"}
	bed, err := NewBed(cluster.StackConfig{
		BufferSlots: 16,
		BucketBytes: 4 << 20,
		FS: olfs.Config{
			DataDiscs:        11,
			ParityDiscs:      1,
			AutoBurn:         false,
			RecycleAfterBurn: true,
			BurnStagger:      5 * time.Second,
		},
	})
	if err != nil {
		return res, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	const arrays = 3
	var recoverTime time.Duration
	var wantFiles, recovered int
	err = bed.Run(func(p *sim.Proc) error {
		// Fill and burn `arrays` disc arrays; each 3.9 MB file fills most of
		// a 4 MB bucket so images map ~1:1 onto discs.
		for a := 0; a < arrays; a++ {
			for i := 0; i < 11; i++ {
				name := fmt.Sprintf("/vault/array%d/file%02d.bin", a, i)
				if err := fs.WriteFile(p, name, pat(3900*1024, byte(a*11+i+1))); err != nil {
					return err
				}
				wantFiles++
			}
			if err := burnAll(p, fs); err != nil {
				return err
			}
		}
		trays := fs.Cat.Trays(image.DAUsed)
		if len(trays) < arrays {
			return fmt.Errorf("expected >= %d used trays, got %d", arrays, len(trays))
		}
		// Total MV loss: fresh namespace + catalog.
		fs.MV = mv.New(bed.Env, bed.MVArr, mv.DefaultOpCost)
		fs.Cat = image.NewCatalog()
		start := p.Now()
		if err := fs.RecoverNamespace(p, trays[:arrays]); err != nil {
			return err
		}
		recoverTime = p.Now() - start
		recovered = fs.MV.FileCount()
		return nil
	})
	if err != nil {
		return res, err
	}
	discs := float64(arrays * 12)
	extrapolated := recoverTime.Minutes() * 120 / discs
	res.Metrics = []Metric{
		{Name: "discs scanned", Paper: 120, Measured: discs, Unit: "(subset; extrapolated below)"},
		{Name: "files recovered", Paper: float64(wantFiles), Measured: float64(recovered), Unit: "files"},
		{Name: "recovery time (subset)", Paper: 30 * discs / 120, Measured: recoverTime.Minutes(), Unit: "min"},
		{Name: "recovery time extrapolated to 120 discs", Paper: 30, Measured: extrapolated, Unit: "min"},
	}
	res.Notes = "recovery = mechanical array loads + parallel per-disc UDF namespace scans through the drives"
	return res, nil
}

// TCO reproduces the §2.1 cost analysis: optical ~$250K/PB over 100 years,
// roughly 1/3 of HDD and 1/2 of tape.
func TCO() (Result, error) {
	res := Result{ID: "tco", Title: "TCO for 1 PB over 100 years (§2.1)"}
	c := tco.Compare(tco.DefaultParams())
	opt := c["optical"].Total()
	hdd := c["hdd"].Total()
	tape := c["tape"].Total()
	res.Metrics = []Metric{
		{Name: "optical TCO", Paper: 250, Measured: opt / 1e3, Unit: "K$/PB"},
		{Name: "HDD/optical ratio", Paper: 3.0, Measured: hdd / opt, Unit: "x"},
		{Name: "tape/optical ratio", Paper: 2.0, Measured: tape / opt, Unit: "x"},
	}
	res.Notes = fmt.Sprintf(
		"breakdowns ($K media/migration/opex): optical %.0f/%.0f/%.0f, hdd %.0f/%.0f/%.0f, tape %.0f/%.0f/%.0f",
		c["optical"].Media/1e3, c["optical"].Migration/1e3, c["optical"].Opex/1e3,
		c["hdd"].Media/1e3, c["hdd"].Migration/1e3, c["hdd"].Opex/1e3,
		c["tape"].Media/1e3, c["tape"].Migration/1e3, c["tape"].Opex/1e3)
	return res, nil
}

// Power reproduces the §5.1 power envelope: 185 W idle, 652 W peak.
func Power() (Result, error) {
	res := Result{ID: "power", Title: "Rack power envelope (§5.1)"}
	cfg := power.PrototypeConfig()
	res.Metrics = []Metric{
		{Name: "idle power", Paper: 185, Measured: cfg.Idle(), Unit: "W"},
		{Name: "peak power", Paper: 652, Measured: cfg.Peak(), Unit: "W"},
		{Name: "roller rotation draw", Paper: 50, Measured: power.RollerRotate, Unit: "W (paper: <50)"},
		{Name: "drive peak draw", Paper: 8, Measured: power.DriveBurn, Unit: "W"},
	}
	return res, nil
}

// Reliability reproduces the §4.7 redundancy analysis across the 12-disc
// tray: sector rate 1e-16; 11+1 and 10+2 array error rates.
func Reliability() (Result, error) {
	res := Result{ID: "reliability", Title: "Inter-disc redundancy error rates (§4.7)"}
	r5 := reliability.RAID5ArrayRate()
	r6 := reliability.RAID6ArrayRate()
	res.Metrics = []Metric{
		{Name: "disc sector error rate (log10)", Paper: -16, Measured: log10(reliability.DiscSectorErrorRate), Unit: ""},
		{Name: "11+1 array error rate (log10)", Paper: -23, Measured: log10(r5), Unit: "paper cites ~1e-23"},
		{Name: "10+2 array error rate (log10)", Paper: -40, Measured: log10(r6), Unit: "paper cites ~1e-40"},
		{Name: "write-and-check throughput factor", Paper: 0.5, Measured: reliability.WriteCheckThroughputFactor(true), Unit: "x (avoided by system-level parity)"},
	}
	res.Notes = "the shape holds: one parity squares the failure exponent, two parities cube it; absolute exponents depend on the correlated-failure unit assumed"
	return res, nil
}

func log10(x float64) float64 {
	if x <= 0 {
		return -999
	}
	l := 0.0
	for x < 1 {
		x *= 10
		l--
	}
	for x >= 10 {
		x /= 10
		l++
	}
	return l + (x-1)/9*0.5 // coarse fractional part; exponent is what matters
}
