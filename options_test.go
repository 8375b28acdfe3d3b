package ros

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"ros/internal/obs"
	"ros/internal/sched"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/config_surface.txt from Options")

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
	if *updateSurface {
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

// TestNewRejectsOwnedFSFields: New fills these Options.FS fields itself, so
// a value set there would be silently replaced. New refuses it and names the
// field that carries the value.
func TestNewRejectsOwnedFSFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FSConfig
		want string
	}{
		{"AutoBurn", FSConfig{AutoBurn: true}, "Options.DisableAutoBurn"},
		{"Sched.Policy", FSConfig{Sched: sched.Config{Policy: sched.PolicyQoSScan}}, "Options.SchedPolicy"},
		{"Trace", FSConfig{Trace: obs.TracerConfig{Capacity: -1}}, "Options.TraceCapacity"},
		{"BucketBytes", FSConfig{BucketBytes: 1 << 20}, "Options.BucketBytes"},
		{"Obs", FSConfig{Obs: obs.New(nil)}, "System.Obs"},
		{"Sched.Obs", FSConfig{Sched: sched.Config{Obs: obs.New(nil)}}, "System.Obs"},
		{"Write", FSConfig{Write: WriteConfig{Admission: AdmissionConfig{Enabled: true}}}, "Options.Write"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(Options{FS: tc.fs})
			if err == nil {
				sys.Close()
				t.Fatalf("New accepted Options.FS.%s, which it overwrites", tc.name)
			}
			if !strings.Contains(err.Error(), "Options.FS."+tc.name) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q should name Options.FS.%s and %s", err, tc.name, tc.want)
			}
		})
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
