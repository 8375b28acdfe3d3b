package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ros"
	"ros/internal/sim"
)

// The workloads themselves never run under go test: these tests cover the
// harness's own arithmetic and stay well under five seconds in total.

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		return s
	}
	// 2000 samples: nearest-rank p99 is the 1980th, 20 lie beyond.
	if v, q := percentile(mk(2000), 0.99); v != 1980 || q != 0.99 {
		t.Errorf("n=2000: got %v at q=%v, want 1980 at 0.99", v, q)
	}
	// 500 samples: p99 would leave 5 beyond, so it drops to the 490th.
	if v, q := percentile(mk(500), 0.99); v != 490 || math.Abs(q-0.98) > 1e-9 {
		t.Errorf("n=500: got %v at q=%v, want 490 at 0.98", v, q)
	}
	// The median is untouched when it has room.
	if v, _ := percentile(mk(500), 0.50); v != 250 {
		t.Errorf("median of 1..500 = %v, want 250", v)
	}
	// Too few samples for any tail: the minimum.
	if v, _ := percentile(mk(8), 0.99); v != 1 {
		t.Errorf("n=8: got %v, want 1", v)
	}
	if v, q := percentile(nil, 0.5); v != 0 || q != 0 {
		t.Errorf("empty: got %v %v", v, q)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("got q1=%v median=%v q3=%v", q1, median(v), q3)
	}
}

func TestSegmentMin(t *testing.T) {
	a := []time.Duration{10, 50, 10, 30}
	b := []time.Duration{12, 20, 40, 30}
	c := []time.Duration{11, 21, 11, 90}
	if got := segmentMin([][]time.Duration{a, b, c}); got != 10+20+10+30 {
		t.Errorf("segmentMin = %v, want 70", got)
	}
	if got := segmentMin([][]time.Duration{a}); got != 100 {
		t.Errorf("single pass = %v, want 100", got)
	}
	if got := segmentMin(nil); got != 0 {
		t.Errorf("no passes = %v", got)
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.Gen(w, rand.New(rand.NewSource(7)))
		b := w.Gen(w, rand.New(rand.NewSource(7)))
		c := w.Gen(w, rand.New(rand.NewSource(8)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op streams", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same op stream", w.Name)
		}
		// Every seed offers the same number of writes and, within 1%, the
		// same bytes.
		offered := func(streams [][]op) (n int, bytes float64) {
			for _, s := range streams {
				for _, o := range s {
					if o.Kind == opWrite {
						n++
						bytes += float64(o.Size)
					}
				}
			}
			return
		}
		na, ba := offered(a)
		nc, bc := offered(c)
		if na != nc || math.Abs(ba-bc) > 0.01*ba {
			t.Errorf("%s: seed 7 offers %d writes, %.0f bytes; seed 8 %d writes, %.0f bytes", w.Name, na, ba, nc, bc)
		}
		for _, s := range a {
			for i := 1; i < len(s); i++ {
				if s[i].Due < s[i-1].Due {
					t.Fatalf("%s: due times go backwards at op %d", w.Name, i)
				}
			}
		}
	}
}

func TestPayloadsAreDistinctAndRepeatable(t *testing.T) {
	a, b := newPayloads(3, 64*kb), newPayloads(3, 64*kb)
	if !bytes.Equal(a.data(5, 4096), b.data(5, 4096)) {
		t.Error("same seed, same file: different bytes")
	}
	if bytes.Equal(a.data(5, 4096), a.data(6, 4096)) {
		t.Error("files 5 and 6 share their bytes")
	}
	if bytes.Equal(a.data(5, 4096), newPayloads(4, 64*kb).data(5, 4096)) {
		t.Error("seeds 3 and 4 share their bytes")
	}
}

// A real traced cold read: the critical-path fold must account for every
// nanosecond of the trace and find the mechanical phases.
func TestCriticalPathFoldSumsToLatency(t *testing.T) {
	sys, err := ros.New(ros.Options{
		BucketBytes: 512 * kb, TraceCapacity: 4096, TraceSampleEvery: 1,
		FS: ros.FSConfig{RecycleAfterBurn: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := newPayloads(1, 64*kb)
	var got []byte
	err = sys.Do(func(p *sim.Proc) error {
		for i := 0; i < 4; i++ {
			if err := sys.FS.WriteFile(p, filePath(i), pl.data(i, 64*kb)); err != nil {
				return err
			}
		}
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		// The burn task unloads its tray and the bucket is recycled, so
		// the read must fetch the array from the roller.
		got, err = sys.FS.ReadFile(p, filePath(2))
		sys.FS.Stop()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pl.data(2, 64*kb)) {
		t.Fatal("cold read returned wrong bytes")
	}
	reads := &traceClasses[1]
	f, err := foldClass(reads, sys.FS.Tracer().Traces())
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 1 {
		t.Fatalf("folded %d read traces, want 1", f.N)
	}
	var sum time.Duration
	for _, m := range reads.metrics() {
		sum += f.ByName[m]
	}
	if sum != f.Total || f.Total == 0 {
		t.Errorf("phases sum to %v, trace took %v", sum, f.Total)
	}
	if f.ByName["rack.read_tray_ms"] < 30*time.Second {
		t.Errorf("tray load phase %v: the read did not go through the mechanics", f.ByName["rack.read_tray_ms"])
	}
	if f.ByName["optical.read_xfer_ms"] == 0 || f.ByName["olfs.read_self_ms"] == 0 {
		t.Errorf("missing phases: %v", f.ByName)
	}
	if f.MetaOp == 0 {
		t.Error("no index-file ops counted in the read trace")
	}
}

// pb is a tiny protobuf writer for building a synthetic profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}
func (b *pb) vfield(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }
func (b *pb) bfield(num int, d []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(d)))
	b.Write(d)
}
func (b *pb) packed(num int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.varint(v)
	}
	b.bfield(num, in.Bytes())
}

func TestProfileFoldingOnSyntheticProfile(t *testing.T) {
	strs := []string{"",
		"runtime.memmove",                             // 1
		"ros/internal/raid.(*Array).WriteAt",          // 2
		"ros/internal/olfs.(*FS).WriteFile",           // 3
		"main.(*pass).do",                             // 4
		"runtime.gcBgMarkWorker",                      // 5
		"runtime.schedule",                            // 6
		"ros/internal/sim.(*Queue[go.shape.int]).Pop", // 7
		"bytes.Equal",                                 // 8
	}
	var prof pb
	for _, s := range strs {
		prof.bfield(6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		var fn, line, loc pb
		fn.vfield(1, id)
		fn.vfield(2, id) // name = string id
		prof.bfield(5, fn.Bytes())
		line.vfield(1, id)
		loc.vfield(1, id)
		loc.bfield(4, line.Bytes())
		prof.bfield(4, loc.Bytes())
	}
	sample := func(value uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, value) // [samples, cpu ns]
		prof.bfield(2, s.Bytes())
	}
	sample(50, 1, 2, 3, 4) // memmove under raid under olfs under the harness -> raid
	sample(20, 7, 3, 4)    // sim queue pop under olfs -> sim
	sample(10, 8, 4)       // bytes.Equal in the harness -> bench
	sample(15, 5)          // collector
	sample(5, 6)           // scheduler handoff
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 || samples[0].Value != 50 || len(samples[0].Funcs) != 4 || samples[0].Funcs[0] != "runtime.memmove" {
		t.Fatalf("parsed %+v", samples)
	}
	got := foldShares(samples)
	want := map[string]float64{"raid": 50, "sim": 20, "bench": 10, "gc": 15, "runtime": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "ros/internal/faultinject/testkit.New", "main.main"}, "faultinject"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"ros.(*System).Do", "main.main"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.funcs); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.funcs, got, c.want)
		}
	}
}

// The manifest must satisfy the benchmark contract's limits, and the file at
// the repository root must be the one this program prints.
func TestManifest(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(manifestJSON()) > 64*kb {
		t.Error("manifest over 64 KiB")
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func TestCombineRejectsDivergentPasses(t *testing.T) {
	mk := func(fp string) *passReport {
		return &passReport{Fingerprint: fp, Attempted: 100, SegCPU: []time.Duration{5, 7}, SetupS: 1, Mallocs: 1000, AllocBytes: 2048000}
	}
	if r := combine([]*passReport{mk("a"), mk("a")}); !r.Correct || r.Metrics["host_allocs_per_op"] != 10 || r.Metrics["host_kb_per_op"] != 20 {
		t.Errorf("agreeing passes: %+v", r)
	}
	if r := combine([]*passReport{mk("a"), mk("b")}); r.Correct {
		t.Error("diverging fingerprints accepted")
	}
	wrong := mk("a")
	wrong.Fails = map[string]int{failWrong: 1}
	if r := combine([]*passReport{wrong, wrong}); r.Correct {
		t.Error("wrong bytes accepted as correct")
	}
}
