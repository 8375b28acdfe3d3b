// Package fsbench is a filebench-like workload generator and measurement
// harness on the virtual clock. The paper (§5.2) drives the five Fig 6
// configurations with filebench's singlestream workload at 1 MB I/O size;
// this package reproduces those workloads plus small-file and multi-stream
// variants used by the ablation benches.
package fsbench

import (
	"fmt"
	"sort"
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

// MeanLatency returns the average recorded latency.
func (r Result) MeanLatency() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / time.Duration(len(r.Latencies))
}

// Quantile returns the exact q-quantile (0..1) of the recorded latencies
// (nearest-rank), or 0 when none were recorded.
func (r Result) Quantile(q float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
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

// SmallFileWrite writes count files of size bytes under dir, recording
// per-file latency (the Fig 7 1 KB-file scenario generalized).
func SmallFileWrite(p *sim.Proc, fs vfs.FileSystem, dir string, count, size int) (Result, error) {
	buf := make([]byte, size)
	pattern(buf, 0x3C)
	var res Result
	start := p.Now()
	for i := 0; i < count; i++ {
		t0 := p.Now()
		name := fmt.Sprintf("%s/f%06d", dir, i)
		f, err := fs.Create(p, name)
		if err != nil {
			return res, err
		}
		if _, err := f.Write(p, buf); err != nil {
			f.Close(p)
			return res, err
		}
		if err := f.Close(p); err != nil {
			return res, err
		}
		res.Bytes += int64(size)
		res.Ops++
		res.Latencies = append(res.Latencies, p.Now()-t0)
	}
	res.Elapsed = p.Now() - start
	return res, nil
}

// SmallFileRead reads count files written by SmallFileWrite, recording
// per-file latency.
func SmallFileRead(p *sim.Proc, fs vfs.FileSystem, dir string, count, size int) (Result, error) {
	buf := make([]byte, size)
	var res Result
	start := p.Now()
	for i := 0; i < count; i++ {
		t0 := p.Now()
		name := fmt.Sprintf("%s/f%06d", dir, i)
		f, err := fs.Open(p, name)
		if err != nil {
			return res, err
		}
		for {
			n, err := f.Read(p, buf)
			res.Bytes += int64(n)
			if err != nil {
				f.Close(p)
				return res, err
			}
			if n == 0 {
				break
			}
		}
		if err := f.Close(p); err != nil {
			return res, err
		}
		res.Ops++
		res.Latencies = append(res.Latencies, p.Now()-t0)
	}
	res.Elapsed = p.Now() - start
	return res, nil
}

// MultiStreamWrite runs n concurrent single-stream writers, one Fork child
// per stream, and returns the aggregate result (drives the multi-RAID
// stream-isolation ablation). It returns once every stream has ended, with
// the error of the lowest-numbered stream that failed.
func MultiStreamWrite(p *sim.Proc, fs vfs.FileSystem, dir string, n int, perStream int64, ioSize int) (Result, error) {
	start := p.Now()
	res := make([]Result, n)
	err := p.Fork("stream-", n, func(sp *sim.Proc, i int) error {
		var err error
		res[i], err = SingleStreamWrite(sp, fs, fmt.Sprintf("%s/stream-%d", dir, i), perStream, ioSize)
		return err
	})
	var agg Result
	for _, r := range res {
		agg.Bytes += r.Bytes
		agg.Ops += r.Ops
	}
	agg.Elapsed = p.Now() - start
	return agg, err
}
