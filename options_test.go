package ros

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata (config_surface.txt, dumps/) from this tree")

const configSurfacePath = "testdata/config_surface.txt"

// surface lists every settable leaf of t as "path type", recursing into
// struct fields and array elements; pointers, maps and scalars are leaves.
func surface(prefix string, t reflect.Type) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Name
			if prefix != "" {
				name = prefix + "." + f.Name
			}
			out = append(out, surface(name, f.Type)...)
		}
		return out
	case reflect.Array:
		var out []string
		for i := 0; i < t.Len(); i++ {
			out = append(out, surface(fmt.Sprintf("%s[%d]", prefix, i), t.Elem())...)
		}
		return out
	}
	return []string{prefix + " " + t.String()}
}

// TestConfigSurface pins every value a user of ros.Options can set. A new
// knob, or one removed, shows up as a reviewed diff of the golden file
// (regenerate with go test -run TestConfigSurface -update).
func TestConfigSurface(t *testing.T) {
	got := strings.Join(surface("", reflect.TypeOf(Options{})), "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(configSurfacePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(configSurfacePath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Options surface changed; review and rerun with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFSConfigReachesOLFS gives every FSConfig field a non-zero value and
// checks that the same-named olfs.Config field of the built System carries
// it, so a field New forgets to map, or one olfs.Config lacks, fails here.
func TestFSConfigReachesOLFS(t *testing.T) {
	var in FSConfig
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			// Distinct values, none of them a default, so a swapped or
			// missing mapping shows; 1+2 discs fit the default buffer.
			f.SetInt(int64(1 + i))
		default:
			t.Fatalf("FSConfig.%s: no test value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	sys, err := New(Options{FS: in, DisableAutoBurn: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	got := reflect.ValueOf(sys.FS.Config())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		g := got.FieldByName(name)
		if !g.IsValid() {
			t.Errorf("FSConfig.%s has no olfs.Config field of that name", name)
			continue
		}
		if g.Interface() != v.Field(i).Interface() {
			t.Errorf("FSConfig.%s = %v reached olfs.Config as %v", name, v.Field(i), g)
		}
	}
}

// TestParityDiscsAloneIsKept: a caller who sets only ParityDiscs keeps it,
// and DataDiscs alone takes its default.
func TestParityDiscsAloneIsKept(t *testing.T) {
	sys, err := New(Options{FS: FSConfig{ParityDiscs: 2}, DisableAutoBurn: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if c := sys.FS.Config(); c.DataDiscs != 2 || c.ParityDiscs != 2 {
		t.Errorf("FS{ParityDiscs: 2} runs %d+%d, want 2+2", c.DataDiscs, c.ParityDiscs)
	}
}

// TestBufferSlotsMapping pins how many bucket slots Options.BufferSlots
// yields: about twice the number, because each RAID-5 HDD is sized at
// (slots·bucket/6 + 64 KB)·2. The standing bench's workloads rest on these
// counts, so changing the formula is a deliberate, clock-moving change.
func TestBufferSlotsMapping(t *testing.T) {
	for _, tc := range []struct {
		slots  int
		bucket int64
		want   int
	}{
		{0, 0, 60},            // defaults: 30 slots of 8 MB
		{120, 2 << 20, 240},   // ingest-steady
		{108, 512 << 10, 217}, // cold-read
		{48, 1 << 20, 96},     // testkit's standard bed
		{2, 1 << 20, 4},       // testkit's smallest (buffer exhaustion)
	} {
		sys, err := New(Options{BufferSlots: tc.slots, BucketBytes: tc.bucket, DisableAutoBurn: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sys.FS.Buckets.Slots()); got != tc.want {
			t.Errorf("BufferSlots=%d BucketBytes=%d: %d bucket slots, want %d", tc.slots, tc.bucket, got, tc.want)
		}
		sys.Close()
	}
}
