package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// A minimal reader for the pprof wire format (profile.proto, gzipped), just
// enough to fold a CPU profile's samples by function name. The repository
// takes no dependencies, so github.com/google/pprof/profile is not available.

// stackSample is one profile sample: function names leaf first, and a value.
type stackSample struct {
	Funcs []string
	Value int64
}

type protoReader struct {
	b []byte
}

var errTruncated = errors.New("pprof: truncated message")

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads one field header and its payload: for varint fields val holds
// the value, for length-delimited ones data does. Fixed-width fields are
// skipped (profile.proto has none the folder needs).
func (r *protoReader) field() (num int, wire int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 5:
		err = r.skip(4)
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return
		}
		if n > uint64(len(r.b)) {
			return 0, 0, 0, nil, errTruncated
		}
		data, r.b = r.b[:n], r.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

func (r *protoReader) skip(n int) error {
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarints decodes a repeated integer field occurrence, packed or not.
func repeatedVarints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile into stack samples, taking
// each sample's last value (cpu nanoseconds in a CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			m := protoReader{data}
			for len(m.b) > 0 {
				n, w, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, d)
				case 2:
					s.vals, err = repeatedVarints(s.vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				n, _, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := protoReader{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{Value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.Funcs = append(ss.Funcs, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// layerOf names the layer a stack is charged to: the package of the deepest
// ros/internal frame, so that time in memmove, mallocgc or a channel send
// goes to the layer that called it. Stacks with no such frame are the
// harness ("bench"), the collector ("gc"), the Go scheduler passing control
// between simulation goroutines ("runtime") or "other".
func layerOf(funcs []string) string {
	const internal = "ros/internal/"
	for _, f := range funcs {
		if strings.HasPrefix(f, internal) {
			pkg := f[len(internal):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "ros.") {
			return "bench"
		}
	}
	inRuntime := false
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.scanobject") ||
			strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
		if strings.HasPrefix(f, "runtime.") {
			inRuntime = true
		}
	}
	if inRuntime {
		return "runtime"
	}
	return "other"
}

// foldShares folds samples by layer and returns each layer's share in
// percent of the total.
func foldShares(samples []stackSample) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		sums[layerOf(s.Funcs)] += s.Value
		total += s.Value
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range sums {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out
}

// profiler runs the CPU profiler over a traced pass and reads the heap
// profile at its end.
type profiler struct {
	cpu bytes.Buffer
}

// heapSampleRate makes the heap profile sample one allocation per 64 KB
// allocated instead of the default 512 KB: a pass allocates only a few GB.
const heapSampleRate = 64 << 10

func startProfiler() *profiler {
	runtime.MemProfileRate = heapSampleRate
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		fatalf(1, "cpu profile: %v", err)
	}
	return p
}

// hostShares is what the profilers attribute to each layer, in percent.
type hostShares struct {
	CPU   map[string]float64
	Alloc map[string]float64
}

func (p *profiler) stop() hostShares {
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		fatalf(1, "cpu profile: %v", err)
	}
	return hostShares{CPU: foldShares(samples), Alloc: foldShares(heapSamples())}
}

// heapSamples reads the runtime's allocation profile: bytes allocated since
// start by allocation stack.
func heapSamples() []stackSample {
	runtime.GC() // the profile lags by up to two collections
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	out := make([]stackSample, 0, n)
	for _, r := range recs[:n] {
		s := stackSample{Value: r.AllocBytes}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function != "" {
				s.Funcs = append(s.Funcs, f.Function)
			}
			if !more {
				break
			}
		}
		out = append(out, s)
	}
	return out
}
