package ros

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/sim"
)

// telemetryWorkload writes and reads a handful of files with a drive-dead
// fault injected mid-run and the dead drive replaced afterwards, then idles
// long enough for alerts to clear — the full fire→resolve lifecycle.
func telemetryWorkload(t *testing.T, seed int64) *System {
	t.Helper()
	sys, err := New(Options{
		SampleEvery: 30 * time.Second,
		FaultSeed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sys.Faults.Arm(faultinject.Rule{Point: faultinject.PointDriveDead, Count: 1})
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 6; i++ {
			path := fmt.Sprintf("/a/f%d", i)
			if err := sys.FS.WriteFile(p, path, bytes.Repeat([]byte{byte(i)}, 1<<20)); err != nil {
				return err
			}
		}
		if _, err := sys.FS.FlushAndBurn(p); err != nil {
			return err
		}
		p.Sleep(3 * time.Minute) // let the drive-dead alert fire
		for _, g := range sys.Cluster.Racks()[0].Lib.Groups {
			for _, d := range g.Drives {
				d.Replace()
			}
		}
		p.Sleep(10 * time.Minute) // let it clear (ClearFor = the 5m window)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTelemetryAlertLifecycle(t *testing.T) {
	sys := telemetryWorkload(t, 7)
	if sys.Faults.Fires() == 0 {
		t.Fatal("test premise broken: no drive-dead fault fired")
	}
	var incident *obs.Incident
	for _, in := range sys.Alerts.Incidents() {
		if in.Rule == "optical-drive-dead" {
			in := in
			incident = &in
		}
	}
	if incident == nil {
		t.Fatalf("drive death never raised optical-drive-dead; incidents: %+v", sys.Alerts.Incidents())
	}
	// Detection within one sampling window of the injection.
	faultAt := sys.Faults.Events()[0].T
	det := time.Duration(incident.FiredNS) - faultAt
	if det < 0 || det > 30*time.Second {
		t.Errorf("detection latency %v, want within one 30s sampling window", det)
	}
	if incident.Open {
		t.Error("alert never resolved after the drive was replaced")
	}
	if firing := sys.Alerts.Firing(); len(firing) != 0 {
		t.Errorf("alerts still active at quiescence: %+v", firing)
	}
	// Sampled series exist for every layer, labeled with the rack that
	// recorded them.
	for _, name := range []string{"olfs.files_written", "optical.drives_dead", "olfs.op.write.p99"} {
		if sys.Telemetry.Get("rack0", name) == nil {
			t.Errorf("series %q missing from sampler under rack0", name)
		}
	}
	if incident.Label != "rack0" {
		t.Errorf("optical-drive-dead fired for %q, want rack0", incident.Label)
	}
	// Prometheus exposition carries the alert counters.
	prom := sys.PrometheusText()
	if !strings.Contains(prom, "ros_alert_fired 1") {
		t.Errorf("exposition missing ros_alert_fired 1:\n%.400s", prom)
	}
}

// TestTelemetryDeterminism: two same-seed runs produce byte-identical series
// dumps and identical alert incident timestamps.
func TestTelemetryDeterminism(t *testing.T) {
	run := func() ([]byte, []obs.Incident) {
		sys := telemetryWorkload(t, 7)
		dump, err := json.Marshal(sys.Telemetry.Dump(0))
		if err != nil {
			t.Fatal(err)
		}
		return dump, sys.Alerts.Incidents()
	}
	dumpA, incA := run()
	dumpB, incB := run()
	if !bytes.Equal(dumpA, dumpB) {
		t.Error("same-seed runs produced different sampled series dumps")
	}
	if len(incA) != len(incB) {
		t.Fatalf("incident counts differ: %d vs %d", len(incA), len(incB))
	}
	for i := range incA {
		if incA[i] != incB[i] {
			t.Errorf("incident %d differs: %+v vs %+v", i, incA[i], incB[i])
		}
	}
}

// TestClusterTelemetryLabels: every rack is a labeled source; the merged view
// sums racks while per-rack series stay separable.
func TestClusterTelemetryLabels(t *testing.T) {
	sys, err := New(Options{Racks: 3, SampleEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *sim.Proc) error {
		for i := 0; i < 9; i++ {
			if err := sys.Cluster.WriteFile(p, fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
				return err
			}
		}
		p.Sleep(2 * time.Minute)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := sys.Telemetry.Labels()
	want := []string{"", "rack0", "rack1", "rack2"}
	if len(labels) != len(want) {
		t.Fatalf("sampler labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("sampler labels = %v, want %v", labels, want)
		}
	}
	// Per-rack file counters sum to the merged cluster view.
	var perRack float64
	for _, l := range []string{"rack0", "rack1", "rack2"} {
		sr := sys.Telemetry.Get(l, "olfs.files_written")
		if sr == nil {
			t.Fatalf("rack series olfs.files_written missing for %s", l)
		}
		perRack += sr.Last().V
	}
	mergedFiles := sys.MergedObs().Counter("olfs.files_written")
	if int64(perRack) != mergedFiles || mergedFiles < 9 {
		t.Errorf("per-rack sum %v != merged counter %d (want >= 9 replica writes)", perRack, mergedFiles)
	}
	// Drill-down: rack snapshots are per-rack, not shared.
	if r0 := sys.RackObs(0).Counter("olfs.files_written"); r0 == 0 || r0 >= mergedFiles {
		t.Errorf("rack0 drill-down = %d, want in (0, %d) — registries shared?", r0, mergedFiles)
	}
	// Exposition labels every rack.
	prom := sys.PrometheusText()
	for _, wantLabel := range []string{`rack="rack0"`, `rack="rack1"`, `rack="rack2"`} {
		if !strings.Contains(prom, wantLabel) {
			t.Errorf("exposition missing %s", wantLabel)
		}
	}
}

// TestOptionsRulesFire: a rule passed through Options.Rules joins the
// default pack and fires like one of its own.
func TestOptionsRulesFire(t *testing.T) {
	sys, err := New(Options{
		SampleEvery: 30 * time.Second,
		Rules:       "wrote-files: threshold olfs.files_written > 2",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	err = sys.Do(func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := sys.FS.WriteFile(p, fmt.Sprintf("/r/f%d", i), []byte("x")); err != nil {
				return err
			}
		}
		p.Sleep(time.Minute)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, in := range sys.Alerts.Incidents() {
		fired = fired || in.Rule == "wrote-files"
	}
	if !fired {
		t.Fatalf("Options.Rules rule never fired; incidents: %+v", sys.Alerts.Incidents())
	}
	if len(sys.Alerts.Rules()) <= len(DefaultRules()) {
		t.Errorf("engine holds %d rules, want the %d defaults plus Options.Rules", len(sys.Alerts.Rules()), len(DefaultRules()))
	}
}
