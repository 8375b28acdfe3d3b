package ros

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/sim"
)

const metricCataloguePath = "testdata/metrics.txt"

// catalogueKey maps a registered metric name to its line in the catalogue:
// the name itself, or the family that one shared registration line makes.
func catalogueKey(name string) string {
	switch {
	case strings.HasPrefix(name, "olfs.op."):
		return "olfs.op.<name>"
	case strings.HasPrefix(name, "fault.") && name != "fault.injected":
		return "fault.<point>"
	case strings.HasPrefix(name, "sched.wait."), strings.HasPrefix(name, "sched.queue_depth."):
		return "sched.*.<class>"
	case strings.HasPrefix(name, "writepath.admit_wait."):
		return "writepath.admit_wait.<class>"
	}
	return name
}

// TestMetricCatalogue pins every metric name a System registers to a line of
// testdata/metrics.txt that names its reader: a default rule, a rosctl view,
// the bench, chaos, an experiment, an example, an accessor with a caller, or
// a test. A new metric needs a line saying who reads it; a deleted one loses
// its line. The run exercises every layer: three racks with telemetry and the
// default rules, a drive-death fault whose alert fires and resolves, a write,
// a burn, a read and a scrub.
func TestMetricCatalogue(t *testing.T) {
	sys, err := New(Options{Racks: 3, SampleEvery: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sys.Faults.Arm(faultinject.Rule{Point: faultinject.PointDriveDead, Count: 1})
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 6; i++ {
			if err := sys.Cluster.WriteFile(p, fmt.Sprintf("/m/f%d", i), bytes.Repeat([]byte{byte(i)}, 1<<20)); err != nil {
				return err
			}
		}
		var burns []*sim.Completion[error]
		for _, r := range sys.Cluster.Racks() {
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return err
			}
			burns = append(burns, c)
		}
		// The dead drive fails its rack's burn; the other racks burn.
		for _, c := range burns {
			c.Wait(p)
		}
		for _, r := range sys.Cluster.Racks() {
			if err := r.FS.UnloadIdle(p); err != nil {
				return err
			}
		}
		if _, err := sys.Cluster.ReadFile(p, "/m/f0"); err != nil {
			return err
		}
		for _, r := range sys.Cluster.Racks() {
			for _, id := range r.FS.Cat.Trays(image.DAUsed) {
				if _, err := r.FS.ScrubTray(p, id); err != nil {
					return err
				}
			}
		}
		for _, r := range sys.Cluster.Racks() {
			for _, g := range r.Lib.Groups {
				for _, d := range g.Drives {
					d.Replace()
				}
			}
		}
		p.Sleep(10 * time.Minute) // let the alert resolve
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if in := sys.Alerts.Incidents(); len(in) == 0 || in[0].Open {
		t.Fatalf("test premise broken: want the drive-death alert fired and resolved, got %+v", in)
	}

	got := map[string]bool{}
	snaps := []obs.Snapshot{sys.Obs.Snapshot()}
	for ri := range sys.Cluster.Racks() {
		snaps = append(snaps, sys.RackObs(ri))
	}
	for _, s := range snaps {
		for _, c := range s.Counters {
			got[catalogueKey(c.Name)] = true
		}
		for _, g := range s.Gauges {
			got[catalogueKey(g.Name)] = true
		}
		for _, h := range s.Histograms {
			got[catalogueKey(h.Name)] = true
		}
	}

	raw, err := os.ReadFile(metricCataloguePath)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, reader, ok := strings.Cut(line, "# read by:")
		name, reader = strings.TrimSpace(name), strings.TrimSpace(reader)
		if !ok || name == "" || reader == "" {
			t.Errorf("%s:%d: want `<name>  # read by: <where>`, got %q", metricCataloguePath, i+1, line)
			continue
		}
		listed[name] = true
	}
	var unlisted, gone []string
	for name := range got {
		if !listed[name] {
			unlisted = append(unlisted, name)
		}
	}
	for name := range listed {
		if !got[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(gone)
	if len(unlisted) > 0 {
		t.Errorf("registered but not in %s (add a line naming the reader): %s", metricCataloguePath, strings.Join(unlisted, " "))
	}
	if len(gone) > 0 {
		t.Errorf("in %s but no longer registered (delete the line): %s", metricCataloguePath, strings.Join(gone, " "))
	}
}
