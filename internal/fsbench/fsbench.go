// Package fsbench is a filebench-like workload generator and measurement
// harness on the virtual clock. The paper (§5.2) drives the five Fig 6
// configurations with filebench's singlestream workloads at 1 MB I/O size;
// this package reproduces singlestreamwrite and singlestreamread.
package fsbench

import (
	"time"

	"ros/internal/obs"
	"ros/internal/sim"
	"ros/internal/vfs"
)

// DefaultIOSize is filebench singlestream's I/O size (§5.2: "default 1 MB").
const DefaultIOSize = 1 << 20

// Result summarizes one workload run.
type Result struct {
	Bytes   int64
	Ops     int64
	Elapsed time.Duration
	// Latencies, when the workload records per-op latency.
	Latencies []time.Duration
}

// ThroughputMBps returns MB/s (decimal) over the run.
func (r Result) ThroughputMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// Observe feeds the recorded per-op latencies into an obs histogram (nil-safe
// on both sides), bridging benchmark results into the unified snapshot.
func (r Result) Observe(h *obs.Histogram) {
	for _, l := range r.Latencies {
		h.Observe(int64(l))
	}
}

// pattern fills buf deterministically (cheap, non-zero so storage layers
// can't elide it).
func pattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = byte(i)*31 + seed
	}
}

// SingleStreamWrite creates path and writes totalBytes sequentially in
// ioSize requests — filebench singlestreamwrite.
func SingleStreamWrite(p *sim.Proc, fs vfs.FileSystem, path string, totalBytes int64, ioSize int) (Result, error) {
	if ioSize <= 0 {
		ioSize = DefaultIOSize
	}
	start := p.Now()
	f, err := fs.Create(p, path)
	if err != nil {
		return Result{}, err
	}
	buf := make([]byte, ioSize)
	pattern(buf, 0x5A)
	var res Result
	for res.Bytes < totalBytes {
		n := int64(ioSize)
		if res.Bytes+n > totalBytes {
			n = totalBytes - res.Bytes
		}
		t0 := p.Now()
		w, err := f.Write(p, buf[:n])
		res.Bytes += int64(w)
		res.Ops++
		res.Latencies = append(res.Latencies, p.Now()-t0)
		if err != nil {
			f.Close(p)
			return res, err
		}
	}
	if err := f.Close(p); err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	return res, nil
}

// SingleStreamRead reads path fully in ioSize requests — filebench
// singlestreamread.
func SingleStreamRead(p *sim.Proc, fs vfs.FileSystem, path string, ioSize int) (Result, error) {
	if ioSize <= 0 {
		ioSize = DefaultIOSize
	}
	start := p.Now()
	f, err := fs.Open(p, path)
	if err != nil {
		return Result{}, err
	}
	buf := make([]byte, ioSize)
	var res Result
	for {
		t0 := p.Now()
		n, err := f.Read(p, buf)
		res.Bytes += int64(n)
		res.Ops++
		if err != nil {
			f.Close(p)
			return res, err
		}
		if n == 0 {
			break
		}
		res.Latencies = append(res.Latencies, p.Now()-t0)
	}
	if err := f.Close(p); err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	return res, nil
}
