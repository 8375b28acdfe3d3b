package ros

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const dumpsDir = "testdata/dumps"

// rosctlScript is the console script both rosctl dumps run.
const rosctlScript = `write /a 2MB
write /b 2MB
write /c 2MB
write /d 2MB
burn
status
stats --json
quit
`

// dumps is the standing set of deterministic outputs: each runs one of the
// two binaries and must print the same bytes, apart from its "(host time:"
// lines, on every run and every host.
var dumps = []struct {
	name  string // golden file under testdata/dumps, without ".txt"
	bin   string // rosbench or rosctl
	args  []string
	stdin string
}{
	{"rosbench-exp-all", "rosbench", []string{"-exp", "all", "-plot=false"}, ""},
	{"rosbench-exp-ablations", "rosbench", []string{"-exp", "ablations"}, ""},
	{"rosbench-exp-ingest-smoke", "rosbench", []string{"-exp", "ingest-smoke"}, ""},
	{"rosbench-chaos-seed51-faults", "rosbench", []string{"-chaos", "-seed", "51",
		"-faults", "optical.drive.dead:every=40,count=2;optical.read:p=0.01"}, ""},
	{"rosbench-chaos-overload-seed61", "rosbench", []string{"-chaos", "-overload", "-seed", "61"}, ""},
	{"rosbench-chaos-seed7", "rosbench", []string{"-chaos", "-seed", "7"}, ""},
	{"rosbench-chaos-seed11-racks3", "rosbench", []string{"-chaos", "-seed", "11", "-racks", "3", "-json", "chaos.json"}, ""},
	{"rosctl-racks1", "rosctl", []string{"-racks", "1"}, rosctlScript},
	{"rosctl-racks3", "rosctl", []string{"-racks", "3"}, rosctlScript},
}

// TestDeterminismDumps builds rosbench and rosctl from this tree, runs every
// dump and compares its output with testdata/dumps. The seed-11 chaos
// campaign's 2 MB JSON is compared by its SHA-256 and a per-series summary.
// A change that means to move a dump re-records them with -update, and the
// move shows in its own diff.
func TestDeterminismDumps(t *testing.T) {
	bin := t.TempDir()
	for _, cmd := range []string{"rosbench", "rosctl"} {
		// go test puts its own toolchain first on the PATH.
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
	}
	for _, d := range dumps {
		work := t.TempDir()
		got := runDump(t, filepath.Join(bin, d.bin), work, d.args, d.stdin)
		checkDump(t, d.name+".txt", got)
		jsonFile := ""
		if i := slices.Index(d.args, "-json"); i >= 0 {
			jsonFile = d.args[i+1]
			js, err := os.ReadFile(filepath.Join(work, jsonFile))
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			checkDump(t, d.name+".json-summary.txt", summarizeChaosJSON(t, js))
		}
		// A dump leaves no file but the JSON it was asked for: any other
		// would go unchecked.
		left, err := os.ReadDir(work)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range left {
			if f.Name() != jsonFile {
				t.Errorf("%s left %s behind", d.name, f.Name())
			}
		}
	}
}

// runDump runs one dump in dir and returns its combined output with every
// "(host time:" line dropped, then its exit status.
func runDump(t *testing.T, bin, dir string, args []string, stdin string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	status := 0
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if line != "" && !strings.Contains(line, "(host time:") {
			b.WriteString(line)
		}
	}
	if b.Len() > 0 && !strings.HasSuffix(b.String(), "\n") {
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "exit status %d\n", status)
	return b.String()
}

// summarizeChaosJSON reduces a chaos campaign's JSON to its SHA-256, every
// top-level field but the series, and one line per series: its kind, point
// count, first and last time, and the minimum, maximum, sum and last value.
func summarizeChaosJSON(t *testing.T, js []byte) string {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(js, &top); err != nil {
		t.Fatalf("chaos JSON: %v", err)
	}
	var series []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Points []struct {
			T int64   `json:"t_ns"`
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal(top["SeriesTail"], &series); err != nil {
		t.Fatalf("chaos JSON SeriesTail: %v", err)
	}
	delete(top, "SeriesTail")
	rest, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sha256 %x\n%s\n", sha256.Sum256(js), rest)
	for _, s := range series {
		fmt.Fprintf(&b, "%s %s n=%d", s.Name, s.Kind, len(s.Points))
		if n := len(s.Points); n > 0 {
			lo, hi, sum := s.Points[0].V, s.Points[0].V, 0.0
			for _, p := range s.Points {
				lo, hi, sum = min(lo, p.V), max(hi, p.V), sum+p.V
			}
			fmt.Fprintf(&b, " t=%d..%d min=%g max=%g sum=%g last=%g",
				s.Points[0].T, s.Points[n-1].T, lo, hi, sum, s.Points[n-1].V)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// checkDump compares got with the golden file name, or rewrites it under
// -update. A mismatch reports the first line that differs.
func checkDump(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(dumpsDir, name)
	if *update {
		if err := os.MkdirAll(dumpsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record the goldens with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
