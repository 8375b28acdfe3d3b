package experiments

import (
	"fmt"
	"time"

	"ros/internal/fsbench"
	"ros/internal/fuse"
	"ros/internal/olfs"
	"ros/internal/samba"
	"ros/internal/sim"
)

// AblationDirectWrite measures §4.8's direct-writing mode: "incoming files
// are directly transferred to the SSD tier at full external bandwidth
// through CIFS or NFS, then asynchronously delivered into OLFS" — versus the
// same data pushed through the samba+FUSE+OLFS stack.
func AblationDirectWrite() (Result, error) {
	res := Result{ID: "ablate-directwrite", Title: "Direct-writing mode vs NAS stack ingest (§4.8)"}
	const total = 128 << 20
	const fileSize = 8 << 20

	// Path A: samba+FUSE+OLFS (the Fig 6 NAS write path).
	bedA, err := NewBed(BedOptions{
		BufferSlots: 8,
		BucketBytes: 64 << 20,
		OLFS:        olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false},
	})
	if err != nil {
		return res, err
	}
	defer bedA.Env.Close()
	stack := samba.Wrap(bedA.Env, fuse.Wrap(bedA.FS, fuse.DefaultOptions()), samba.DefaultOptions())
	var nasMBps float64
	err = bedA.Run(func(p *sim.Proc) error {
		start := p.Now()
		for off := 0; off < total; off += fileSize {
			name := fmt.Sprintf("/dw/nas-%04d.bin", off/fileSize)
			r, err := fsbench.SingleStreamWrite(p, stack, name, fileSize, fsbench.DefaultIOSize)
			if err != nil {
				return err
			}
			_ = r
		}
		nasMBps = float64(total) / 1e6 / (p.Now() - start).Seconds()
		return nil
	})
	if err != nil {
		return res, err
	}

	// Path B: direct-writing mode.
	bedB, err := NewBed(BedOptions{
		BufferSlots: 8,
		BucketBytes: 64 << 20,
		OLFS:        olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false},
	})
	if err != nil {
		return res, err
	}
	defer bedB.Env.Close()
	var directMBps float64
	var drainLag time.Duration
	err = bedB.Run(func(p *sim.Proc) error {
		data := pat(fileSize, 0x42)
		start := p.Now()
		for off := 0; off < total; off += fileSize {
			name := fmt.Sprintf("/dw/direct-%04d.bin", off/fileSize)
			if err := bedB.FS.DirectIngest(p, name, data); err != nil {
				return err
			}
		}
		ingested := p.Now()
		directMBps = float64(total) / 1e6 / (ingested - start).Seconds()
		if err := bedB.FS.DirectDrain(p); err != nil {
			return err
		}
		drainLag = p.Now() - ingested
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "NAS stack ingest throughput", Paper: 0, Measured: nasMBps, Unit: "MB/s (8MB files through samba+FUSE+OLFS; per-file metadata dominates)"},
		{Name: "direct-writing ingest throughput", Paper: 1150, Measured: directMBps, Unit: "MB/s ('full external bandwidth')"},
		{Name: "direct-mode speedup", Paper: 0, Measured: directMBps / nasMBps, Unit: "x (no exact paper figure)"},
		{Name: "async delivery lag after last ingest", Paper: 0, Measured: drainLag.Seconds(), Unit: "s (background, off the client path)"},
	}
	res.Notes = "the paper gives no throughput figure for direct mode beyond 'full external bandwidth'; the 10GbE wire rate is the reference"
	return res, nil
}
