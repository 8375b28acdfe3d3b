package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ros"
)

// chaosSeeds are the fixed seeds the CI chaos-smoke job sweeps. Eight seeds
// give eight completely different fault schedules and workload interleavings
// over the same invariants.
var chaosSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// TestChaosCampaignSeeds runs the default campaign (4 concurrent fault rules
// over a mixed read/write/scrub/repair workload) on every smoke seed: the
// oracle must hold and faults must actually have fired.
func TestChaosCampaignSeeds(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := Run(Config{Seed: seed})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Failed() {
				t.Fatalf("invariant violations:\n%s", rep.String())
			}
			if rep.Injected == 0 {
				t.Error("no faults injected — campaign exercised nothing")
			}
			if rep.Ops["write"] == 0 || rep.Ops["read"] == 0 {
				t.Errorf("degenerate workload: ops = %v", rep.Ops)
			}
		})
	}
}

// TestChaosDeterministicReplay: the same seed must produce the identical
// fault schedule, fault counters and op mix — the property that makes the
// printed replay line actually reproduce a failure.
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Schedule != b.Schedule {
		t.Errorf("fault schedules differ:\n--- first\n%s--- second\n%s", a.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(a.FaultCounters, b.FaultCounters) {
		t.Errorf("fault counters differ: %v vs %v", a.FaultCounters, b.FaultCounters)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.OpErrors, b.OpErrors) {
		t.Errorf("op mix differs: %v/%v vs %v/%v", a.Ops, a.OpErrors, b.Ops, b.OpErrors)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("violations differ: %v vs %v", a.Violations, b.Violations)
	}

	// A different seed must give a different schedule (the plane is actually
	// seed-driven, not constant).
	c, err := Run(Config{Seed: 43})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if a.Injected > 0 && c.Injected > 0 && a.Schedule == c.Schedule {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestChaosViolationReproduces drives the system beyond its redundancy bound
// (aggressive whole-disc aging with 2+1 groups) so the oracle must flag
// violations — and the violations must reproduce exactly from the same seed,
// which is what the Replay() block promises.
func TestChaosViolationReproduces(t *testing.T) {
	cfg := Config{Seed: violationSeed, Faults: "media.aged:p=0.6", Ops: 25}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !a.Failed() {
		t.Fatalf("beyond-bound campaign reported no violations:\n%s", a.String())
	}
	if !strings.Contains(a.Replay(), fmt.Sprintf("-seed %d", violationSeed)) ||
		!strings.Contains(a.Replay(), "media.aged") {
		t.Errorf("replay block missing seed or spec:\n%s", a.Replay())
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("replay did not reproduce violations:\n--- first\n%v\n--- replay\n%v", a.Violations, b.Violations)
	}
	if a.Schedule != b.Schedule {
		t.Errorf("replay fault schedule differs:\n--- first\n%s--- replay\n%s", a.Schedule, b.Schedule)
	}
}

// TestChaosFaultFree: with no rules armed the campaign is a plain correctness
// workout — zero injections, zero tolerated errors expected on reads/writes.
func TestChaosFaultFree(t *testing.T) {
	rep, err := Run(Config{Seed: 9, Faults: "none", Ops: 20})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("fault-free campaign failed:\n%s", rep.String())
	}
	if rep.Injected != 0 {
		t.Errorf("injected = %d without any armed rules", rep.Injected)
	}
	if rep.OpErrors["write"] != 0 || rep.OpErrors["read"] != 0 {
		t.Errorf("fault-free campaign saw op errors: %v", rep.OpErrors)
	}
}

// violationSeed is a seed empirically verified to push media.aged:p=0.6 past
// the 2+1 redundancy bound (see TestChaosViolationReproduces).
const violationSeed = 77

// overloadSeeds drive the overload campaigns (Config.Overload); disjoint
// from the smoke seeds because the overload phase adds its own workers.
var overloadSeeds = []int64{61, 62}

// TestChaosOverloadSeeds runs the default fault mix plus the overload phase:
// closed-loop ingest floods a 6 MB admission bucket, so writes must shed
// with ErrOverload while every acked write stays durable, inflight bytes
// never exceed capacity, and all tokens return after the heal.
func TestChaosOverloadSeeds(t *testing.T) {
	for _, seed := range overloadSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := Run(Config{Seed: seed, Overload: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Failed() {
				t.Fatalf("invariant violations:\n%s", rep.String())
			}
			if rep.Ops["ingest"] == 0 {
				t.Error("overload phase issued no ingest ops")
			}
			if rep.Shed == 0 {
				t.Error("overload campaign shed nothing — admission control never engaged")
			}
		})
	}
}

// TestChaosOverloadDeterministicReplay: the overload phase rides the same
// deterministic clock — identical seed, identical shed count and op mix.
func TestChaosOverloadDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 63, Overload: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Shed != b.Shed {
		t.Errorf("shed counts differ: %d vs %d", a.Shed, b.Shed)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.OpErrors, b.OpErrors) {
		t.Errorf("op mix differs: %v/%v vs %v/%v", a.Ops, a.OpErrors, b.Ops, b.OpErrors)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("violations differ: %v vs %v", a.Violations, b.Violations)
	}
}

// clusterSeeds drive the three-rack campaigns, whose mix includes the
// cross-rack op that one-rack campaigns skip.
var clusterSeeds = []int64{11, 12, 13}

// clusterOpts is the 3-rack / 2-replica federation the cluster campaigns run
// against.
func clusterOpts() ros.Options {
	return ros.Options{Racks: 3, Replicas: 2}
}

// TestChaosClusterCampaignSeeds runs the default fault mix against the
// federation: writes/reads/handles route through the cluster, the xrack op
// kills primaries mid-campaign, and the oracle reads everything back through
// replica selection.
func TestChaosClusterCampaignSeeds(t *testing.T) {
	for _, seed := range clusterSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := Run(Config{Seed: seed, Opts: clusterOpts()})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Failed() {
				t.Fatalf("invariant violations:\n%s", rep.String())
			}
			if rep.Injected == 0 {
				t.Error("no faults injected — campaign exercised nothing")
			}
			if rep.Ops["write"] == 0 || rep.Ops["read"] == 0 || rep.Ops["xrack"] == 0 {
				t.Errorf("degenerate cluster workload: ops = %v", rep.Ops)
			}
		})
	}
}

// TestChaosClusterRackOfflineFailover is the PR's acceptance scenario: with 3
// racks and 2 replicas, an armed rack.offline fault on rack 0 must yield ZERO
// failed reads — every read routed at the dead rack fails over to a replica.
func TestChaosClusterRackOfflineFailover(t *testing.T) {
	rep, err := Run(Config{Seed: 21, Faults: "rack.offline@rack0", Opts: clusterOpts()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("invariant violations:\n%s", rep.String())
	}
	if rep.Injected == 0 {
		t.Fatal("rack.offline never fired — nothing was tested")
	}
	if rep.OpErrors["read"] != 0 {
		t.Errorf("%d reads failed with a live replica available; want 0 (every read must fail over)",
			rep.OpErrors["read"])
	}
	if rep.OpErrors["xrack"] != 0 {
		t.Errorf("%d cross-rack failover reads failed; want 0", rep.OpErrors["xrack"])
	}
	if rep.OpErrors["write"] != 0 {
		t.Errorf("%d writes failed despite substitute racks; want 0", rep.OpErrors["write"])
	}
	// The alert oracle must have matched the injected rack.offline to the
	// cluster-rack-offline rule with a detection latency within one sampling
	// window, and the incident must have recovered after the heal probe.
	if _, ok := rep.AlertDetection["cluster-rack-offline"]; !ok {
		t.Errorf("no detection latency recorded for cluster-rack-offline; incidents: %+v", rep.AlertIncidents)
	}
	if rec, ok := rep.AlertRecovery["cluster-rack-offline"]; ok && rec <= 0 {
		t.Errorf("cluster-rack-offline recovery latency %v, want > 0", rec)
	}
}

// TestChaosDriveDeadAlert arms whole-drive death (deliberately absent from
// DefaultFaults) and holds the campaign to the telemetry contract: the
// optical-drive-dead alert fires within one sampling window of the kill,
// resolves after the heal phase FRU-swaps the dead drives, and the report
// carries both latencies.
func TestChaosDriveDeadAlert(t *testing.T) {
	rep, err := Run(Config{Seed: 51, Faults: "optical.drive.dead:every=40,count=2;optical.read:p=0.01"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("invariant violations:\n%s", rep.String())
	}
	if rep.FaultCounters["fault.optical.drive.dead"] == 0 {
		t.Fatal("no drive-dead fault fired — nothing was tested")
	}
	det, ok := rep.AlertDetection["optical-drive-dead"]
	if !ok {
		t.Fatalf("no detection latency for optical-drive-dead; incidents: %+v", rep.AlertIncidents)
	}
	if det > 30*time.Second {
		t.Errorf("detection latency %v exceeds one 30s sampling window", det)
	}
	rec, ok := rep.AlertRecovery["optical-drive-dead"]
	if !ok || rec <= 0 {
		t.Errorf("drive-dead incident never recovered (recovery %v, recorded %v)", rec, ok)
	}
	for _, in := range rep.AlertIncidents {
		if in.Open {
			t.Errorf("incident %s[%s] still open at campaign end", in.Rule, in.Label)
		}
	}
}

// TestChaosClusterDeterministicReplay: cluster campaigns replay exactly from
// their seed too — re-replication, failover and placement are all on the
// deterministic clock.
func TestChaosClusterDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 31, Opts: clusterOpts()}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Schedule != b.Schedule {
		t.Errorf("fault schedules differ:\n--- first\n%s--- second\n%s", a.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.OpErrors, b.OpErrors) {
		t.Errorf("op mix differs: %v/%v vs %v/%v", a.Ops, a.OpErrors, b.Ops, b.OpErrors)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("violations differ: %v vs %v", a.Violations, b.Violations)
	}
}
