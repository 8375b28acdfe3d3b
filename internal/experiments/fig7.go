package experiments

import (
	"strings"
	"time"

	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/samba"
	"ros/internal/sim"
	"ros/internal/vfs"
)

// Fig7 reproduces the internal-operation breakdown: a 1 KB file written and
// read through OLFS with direct I/O decomposes into stat/mknod/stat/write/
// close (~16 ms) and stat/read/close (~9 ms); through samba+OLFS the write
// picks up seven extra stats (53 ms) and the read reaches 15 ms.
func Fig7() (Result, error) {
	res := Result{
		ID:    "fig7",
		Title: "OLFS internal operations and latencies (§5.3, Fig 7)",
	}
	bed, err := NewBed(BedOptions{
		OLFS: olfs.Config{
			DataDiscs:   2,
			ParityDiscs: 1,
			AutoBurn:    false,
			DirectIO:    true,
		},
	})
	if err != nil {
		return res, err
	}
	defer bed.Env.Close()
	fs := bed.FS
	smb := samba.Wrap(bed.Env, fs, samba.DefaultOptions())

	var olfsWrite, olfsRead, smbWrite, smbRead time.Duration
	var writeTrace, readTrace, smbWriteTrace []string
	payload := pat(1024, 1)
	err = bed.Run(func(p *sim.Proc) error {
		// The paper repeats each measurement 50 times; the simulation is
		// deterministic, so one pass per fresh file gives the same averages.
		const reps = 50
		var wSum, rSum time.Duration
		for i := 0; i < reps; i++ {
			name := "/fig7/olfs-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			start := p.Now()
			ops, err := opTrace(p, fs.Tracer(), func() error { return fs.WriteFile(p, name, payload) })
			if err != nil {
				return err
			}
			wSum += p.Now() - start
			start = p.Now()
			rops, err := opTrace(p, fs.Tracer(), func() error {
				_, err := fs.ReadFile(p, name)
				return err
			})
			if err != nil {
				return err
			}
			rSum += p.Now() - start
			if i == 0 {
				writeTrace, readTrace = ops, rops
			}
		}
		olfsWrite = wSum / reps
		olfsRead = rSum / reps

		var swSum, srSum time.Duration
		for i := 0; i < reps; i++ {
			name := "/fig7/smb-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			start := p.Now()
			ops, err := opTrace(p, fs.Tracer(), func() error { return vfs.WriteFile(p, smb, name, payload, 0) })
			if err != nil {
				return err
			}
			swSum += p.Now() - start
			if i == 0 {
				smbWriteTrace = ops
			}
			start = p.Now()
			// Sized read (stat told the client the length): open, one read,
			// close — the paper's three-op read sequence.
			f, err := smb.Open(p, name)
			if err != nil {
				return err
			}
			buf := make([]byte, len(payload))
			if _, err := f.Read(p, buf); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			srSum += p.Now() - start
		}
		smbWrite = swSum / reps
		smbRead = srSum / reps
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "OLFS 1KB write latency", Paper: 16, Measured: olfsWrite.Seconds() * 1e3, Unit: "ms"},
		{Name: "OLFS 1KB read latency", Paper: 9, Measured: olfsRead.Seconds() * 1e3, Unit: "ms"},
		{Name: "samba+OLFS 1KB write latency", Paper: 53, Measured: smbWrite.Seconds() * 1e3, Unit: "ms"},
		{Name: "samba+OLFS 1KB read latency", Paper: 15, Measured: smbRead.Seconds() * 1e3, Unit: "ms"},
		{Name: "per internal op (avg, write path)", Paper: 2.5, Measured: olfsWrite.Seconds() * 1e3 / 5, Unit: "ms"},
		{Name: "OLFS write internal ops", Paper: 5, Measured: float64(len(writeTrace)), Unit: "ops (stat,mknod,stat,write,close)"},
		{Name: "OLFS read internal ops", Paper: 3, Measured: float64(len(readTrace)), Unit: "ops (stat,read,close)"},
		{Name: "samba+OLFS write internal ops", Paper: 11, Measured: float64(len(smbWriteTrace)), Unit: "ops (stat*2,mknod,stat*6,write,close)"},
	}
	// Percentile view of the same internal operations, straight from the
	// unified obs histograms (no paper values — tolerance checks skip them).
	for _, h := range fs.Obs().Snapshot().Histograms {
		if !strings.HasPrefix(h.Name, "olfs.op.") || h.Count == 0 {
			continue
		}
		res.Metrics = append(res.Metrics,
			Metric{Name: h.Name + " p50", Measured: float64(h.P50) / 1e6, Unit: "ms"},
			Metric{Name: h.Name + " p95", Measured: float64(h.P95) / 1e6, Unit: "ms"},
		)
	}
	res.Notes = "OLFS write trace: " + strings.Join(writeTrace, ",") +
		" | read trace: " + strings.Join(readTrace, ",") +
		" | samba+OLFS write trace: " + strings.Join(smbWriteTrace, ",")
	return res, nil
}

// opTrace runs call inside a trace of its own and returns the internal
// operations it made: the olfs.op.* spans of that trace, in start order. The
// wrapper trace is what collects the ops of a call that enters OLFS through
// samba's metadata requests rather than an OLFS entry point; an OLFS entry
// point nests under it.
func opTrace(p *sim.Proc, tr *obs.Tracer, call func() error) ([]string, error) {
	op := tr.StartOp(p, "fig7", "interactive")
	err := call()
	op.Finish(p, err)
	var names []string
	for _, sp := range op.Trace().Spans() {
		if name, ok := strings.CutPrefix(sp.Name, "olfs.op."); ok {
			names = append(names, name)
		}
	}
	return names, err
}
