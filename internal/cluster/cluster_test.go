package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// testBed is a small federation on a fresh simulation: 3 racks of one roller
// and two drive groups each, 1 MB buckets, 2+1 redundancy.
type testBed struct {
	env   *sim.Env
	plane *faultinject.Plane
	reg   *obs.Registry
	cl    *Cluster
}

func newBed(t *testing.T, racks, replicas int, mutate func(*Config)) *testBed {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	plane := faultinject.New(env, 1)
	reg := obs.New(env)
	plane.AttachObs(reg)
	cfg := Config{
		Racks:    racks,
		Replicas: replicas,
		Stack: StackConfig{
			Rollers:     1,
			DriveGroups: 2,
			BufferSlots: 12,
			BucketBytes: 1 << 20,
			FS:          olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: true},
			Obs:         reg,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := New(env, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return &testBed{env: env, plane: plane, reg: reg, cl: cl}
}

// run executes fn as a simulation process and drains the clock, failing the
// test on fn errors or deadlock.
func (tb *testBed) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	tb.env.Go("test", func(p *sim.Proc) { err = fn(p) })
	tb.env.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tb.env.Deadlocked() {
		t.Fatalf("simulation deadlocked (%d procs blocked)", tb.env.Live())
	}
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// count reads one of rack r's counters from its registry.
func count(r *Rack, name string) int64 { return r.Reg.Counter(name).Value() }

// TestClusterReplicatedWriteRead: writes land on Replicas distinct racks and
// read back byte-identical through the federation namespace.
func TestClusterReplicatedWriteRead(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const files = 12
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/a/f%02d", i), pat(200<<10, byte(i))); err != nil {
				return err
			}
		}
		for i := 0; i < files; i++ {
			got, err := tb.cl.ReadFile(p, fmt.Sprintf("/a/f%02d", i))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, pat(200<<10, byte(i))) {
				return fmt.Errorf("file %d: payload mismatch", i)
			}
		}
		return nil
	})
	for i := 0; i < files; i++ {
		set := tb.cl.ReplicasOf(fmt.Sprintf("/a/f%02d", i))
		if len(set) != 2 {
			t.Fatalf("file %d: replica set %v, want 2 racks", i, set)
		}
		if set[0] == set[1] {
			t.Fatalf("file %d: duplicate rack in replica set %v", i, set)
		}
	}
	if got := tb.cl.m.replicaWrites.Value(); got != 2*files {
		t.Errorf("replica_writes = %d, want %d", got, 2*files)
	}
	if tb.cl.Entries() != files {
		t.Errorf("entries = %d, want %d", tb.cl.Entries(), files)
	}
	if tb.cl.Backlog() != 0 {
		t.Errorf("backlog = %d, want 0 (all writes fully replicated)", tb.cl.Backlog())
	}
}

// TestClusterFailoverOnOfflineFault is the acceptance scenario: 3 racks,
// Replicas=2, an armed rack.offline fault on rack 0. Every read that would
// have hit rack 0 must fail over to its replica — zero failed reads.
func TestClusterFailoverOnOfflineFault(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const files = 16
	payload := func(i int) []byte { return pat(150<<10, byte(3*i)) }
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/ha/f%02d", i), payload(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := tb.plane.ArmSpec("rack.offline@rack0"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	failed := 0
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			got, err := tb.cl.ReadFile(p, fmt.Sprintf("/ha/f%02d", i))
			if err != nil {
				failed++
				t.Errorf("read %d failed despite a live replica: %v", i, err)
				continue
			}
			if !bytes.Equal(got, payload(i)) {
				return fmt.Errorf("file %d: payload mismatch after failover", i)
			}
		}
		return nil
	})
	if failed != 0 {
		t.Fatalf("%d reads failed with rack0 offline; want 0", failed)
	}
	if tb.cl.Racks()[0].Health() != HealthOffline {
		t.Errorf("rack0 health = %v, want offline", tb.cl.Racks()[0].Health())
	}
	if got := tb.cl.m.failovers.Value(); got == 0 {
		t.Errorf("failovers = 0, want > 0 (rack0 held replicas)")
	}
	if got := tb.cl.m.transitions.Value(); got == 0 {
		t.Errorf("health_transitions = 0, want > 0")
	}
	// The offline scan re-replicated rack0's images onto the survivors.
	for i := 0; i < files; i++ {
		set := tb.cl.ReplicasOf(fmt.Sprintf("/ha/f%02d", i))
		live := 0
		for _, ri := range set {
			if tb.cl.Racks()[ri].Health() != HealthOffline {
				live++
			}
		}
		if live < 2 {
			t.Errorf("file %d: only %d live replicas after re-replication (set %v)", i, live, set)
		}
	}
	if got := tb.cl.m.rereplDone.Value(); got == 0 {
		t.Errorf("rerepl_done = 0, want > 0")
	}
}

// TestClusterProbeRecovers: a once-only offline fault knocks rack 0 out;
// Probe (the heal path) brings it back to Up when the fault stops firing.
func TestClusterProbeRecovers(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	tb.run(t, func(p *sim.Proc) error {
		return tb.cl.WriteFile(p, "/probe/f0", pat(64<<10, 9))
	})
	if _, err := tb.plane.ArmSpec("rack.offline@rack0:once"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	tb.run(t, func(p *sim.Proc) error {
		tb.cl.Probe(p) // consumes the once-rule, rack0 -> offline
		if h := tb.cl.Racks()[0].Health(); h != HealthOffline {
			return fmt.Errorf("after fault probe: rack0 %v, want offline", h)
		}
		tb.cl.Probe(p) // rule exhausted: rack0 recovers
		if h := tb.cl.Racks()[0].Health(); h != HealthUp {
			return fmt.Errorf("after heal probe: rack0 %v, want up", h)
		}
		return nil
	})
	if up := tb.cl.m.racksUp.Value(); up != 3 {
		t.Errorf("racks_up = %d, want 3", up)
	}
}

// TestClusterDegradedStillServes: a degraded rack keeps serving when it holds
// the only copy, but replica selection avoids it when a healthy copy exists.
func TestClusterDegradedStillServes(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const path = "/deg/f0"
	data := pat(100<<10, 42)
	tb.run(t, func(p *sim.Proc) error {
		return tb.cl.WriteFile(p, path, data)
	})
	set := tb.cl.ReplicasOf(path)
	primary := set[0]
	tb.cl.SetHealth(primary, HealthDegraded)
	tb.run(t, func(p *sim.Proc) error {
		got, err := tb.cl.ReadFile(p, path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("payload mismatch")
		}
		return nil
	})
	// The healthy secondary should have served (degraded penalty dominates).
	if got := tb.cl.m.secondaryReads.Value(); got != 1 {
		t.Errorf("secondary_reads = %d, want 1 (read should avoid the degraded primary)", got)
	}
	// Degrade everything: the file must still be readable.
	for ri := range tb.cl.Racks() {
		tb.cl.SetHealth(ri, HealthDegraded)
	}
	tb.run(t, func(p *sim.Proc) error {
		got, err := tb.cl.ReadFile(p, path)
		if err != nil {
			return fmt.Errorf("read with all racks degraded: %w", err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("payload mismatch (all degraded)")
		}
		return nil
	})
}

// TestClusterAddRackNoRelocation: growing the federation never changes an
// existing file's replica set, and new writes drain toward the newcomer.
func TestClusterAddRackNoRelocation(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const before = 30
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < before; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/grow/f%03d", i), pat(80<<10, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	old := make(map[string][]int, before)
	for i := 0; i < before; i++ {
		path := fmt.Sprintf("/grow/f%03d", i)
		old[path] = tb.cl.ReplicasOf(path)
	}
	oldWrites := make([]int64, 3)
	for ri, r := range tb.cl.Racks() {
		oldWrites[ri] = count(r, "olfs.files_written")
	}
	if _, err := tb.cl.AddRack(); err != nil {
		t.Fatalf("AddRack: %v", err)
	}
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < 20; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/grow/g%03d", i), pat(80<<10, byte(100+i))); err != nil {
				return err
			}
		}
		return nil
	})
	for path, want := range old {
		got := tb.cl.ReplicasOf(path)
		if len(got) != len(want) {
			t.Fatalf("%s: replica set %v changed from %v after growth", path, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: replica set %v changed from %v after growth", path, got, want)
			}
		}
	}
	if loads := tb.cl.Loads(); loads[3] == 0 {
		t.Errorf("new rack received no placements after growth: loads %v", loads)
	}
	// Zero relocation also means zero data movement: no old rack ingested a
	// file it didn't already have.
	for ri := 0; ri < 3; ri++ {
		r := tb.cl.Racks()[ri]
		extra := count(r, "olfs.files_written") - oldWrites[ri]
		placed := int64(0)
		for i := 0; i < 20; i++ {
			for _, m := range tb.cl.ReplicasOf(fmt.Sprintf("/grow/g%03d", i)) {
				if m == ri {
					placed++
				}
			}
		}
		if extra != placed {
			t.Errorf("rack %d ingested %d files beyond its %d new placements (relocation?)", ri, extra, placed)
		}
	}
}

// TestClusterHandleFailover: an open read handle survives its rack going
// offline mid-stream by transparently reopening on another replica.
func TestClusterHandleFailover(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const path = "/h/f0"
	data := pat(300<<10, 7)
	tb.run(t, func(p *sim.Proc) error {
		return tb.cl.WriteFile(p, path, data)
	})
	tb.run(t, func(p *sim.Proc) error {
		f, err := tb.cl.OpenFile(p, path)
		if err != nil {
			return err
		}
		defer f.Close(p)
		if f.Size() != int64(len(data)) {
			return fmt.Errorf("Size = %d, want %d", f.Size(), len(data))
		}
		buf := make([]byte, 64<<10)
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, data[:len(buf)]) {
			return fmt.Errorf("head mismatch")
		}
		served := f.Rack()
		tb.cl.SetHealth(served, HealthOffline)
		if _, err := f.ReadAt(p, buf, 128<<10); err != nil {
			return fmt.Errorf("ReadAt after rack offline: %w", err)
		}
		if !bytes.Equal(buf, data[128<<10:128<<10+len(buf)]) {
			return fmt.Errorf("post-failover payload mismatch")
		}
		if f.Rack() == served {
			return fmt.Errorf("handle still pinned to offline rack %d", served)
		}
		return nil
	})
	if got := tb.cl.m.failovers.Value(); got == 0 {
		t.Errorf("failovers = 0, want > 0 for handle reopen")
	}
}

// TestClusterTraceSpans: routed operations appear as cluster.route child
// spans, and failovers leave cluster.failover markers in the trace journal.
func TestClusterTraceSpans(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	const files = 8
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/tr/f%d", i), pat(64<<10, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	names := map[string]int{}
	for _, tr := range tb.cl.tracer.Traces() {
		for _, sp := range tr.Spans() {
			names[sp.Name]++
		}
	}
	if names["cluster.route"] == 0 {
		t.Errorf("no cluster.route spans in trace journal: %v", names)
	}
	// A once-only fault on rack 0 fires mid-read: the plan still lists rack 0
	// (it is Up at planning time, and the buffer-resident cost tie breaks to
	// the lowest index), so the first read routed there fails over and leaves
	// a cluster.failover marker.
	if _, err := tb.plane.ArmSpec("rack.offline@rack0:once"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			if _, err := tb.cl.ReadFile(p, fmt.Sprintf("/tr/f%d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if tb.cl.m.failovers.Value() == 0 {
		t.Fatalf("expected at least one failover from the once-fault on rack0")
	}
	found := false
	for _, tr := range tb.cl.tracer.Traces() {
		for _, sp := range tr.Spans() {
			if sp.Name == "cluster.failover" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("failovers counted but no cluster.failover span captured")
	}
}

// TestClusterWriteFailoverSubstitutes: a write whose target drops mid-write
// moves that replica to a substitute rack and still reaches full replication.
func TestClusterWriteFailoverSubstitutes(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	if _, err := tb.plane.ArmSpec("rack.offline@rack0"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	const files = 8
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/sub/f%d", i), pat(50<<10, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < files; i++ {
		set := tb.cl.ReplicasOf(fmt.Sprintf("/sub/f%d", i))
		if len(set) != 2 {
			t.Fatalf("file %d: replica set %v, want 2 after substitution", i, set)
		}
		for _, ri := range set {
			if ri == 0 {
				t.Fatalf("file %d: replica on offline rack0 (set %v)", i, set)
			}
		}
	}
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < files; i++ {
			got, err := tb.cl.ReadFile(p, fmt.Sprintf("/sub/f%d", i))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, pat(50<<10, byte(i))) {
				return fmt.Errorf("file %d mismatch", i)
			}
		}
		return nil
	})
}

// TestClusterStatus: the operational snapshot reflects policy, membership and
// health.
func TestClusterStatus(t *testing.T) {
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	tb.run(t, func(p *sim.Proc) error {
		for i := 0; i < 6; i++ {
			if err := tb.cl.WriteFile(p, fmt.Sprintf("/st/f%d", i), pat(40<<10, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	tb.cl.SetHealth(2, HealthDegraded)
	st := tb.cl.Status()
	if st.Replicas != 2 || st.Entries != 6 {
		t.Errorf("status header = %d/%d, want 2/6", st.Replicas, st.Entries)
	}
	if len(st.Racks) != 3 {
		t.Fatalf("status lists %d racks, want 3", len(st.Racks))
	}
	if st.Racks[2].Health != "degraded" {
		t.Errorf("rack2 health = %q, want degraded", st.Racks[2].Health)
	}
	var load int64
	for _, rs := range st.Racks {
		load += rs.Load
	}
	if load != 12 {
		t.Errorf("total placed load = %d, want 12 (6 files x 2 replicas)", load)
	}
}

// TestClusterRoutesToCachedReplica: once one replica's rack has copied a
// burned image back into its read cache, reads route there (a buffer hit)
// rather than to a replica whose rack must fetch the tray. mechCost prices
// buffer residency at zero, so no routing code is involved beyond that.
func TestClusterRoutesToCachedReplica(t *testing.T) {
	tb := newBed(t, 2, 2, func(c *Config) {
		c.Stack.FS.AutoBurn = false
		c.Stack.FS.RecycleAfterBurn = true
	})
	defer tb.cl.Stop()
	const path = "/rc/f"
	data := pat(200<<10, 7)
	var cached *Rack
	tb.run(t, func(p *sim.Proc) error {
		if err := tb.cl.WriteFile(p, path, data); err != nil {
			return err
		}
		for _, r := range tb.cl.Racks() {
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
		}
		set := tb.cl.ReplicasOf(path)
		if len(set) != 2 {
			return fmt.Errorf("replica set %v, want 2 racks", set)
		}
		// Warm the higher-index replica's read cache with a direct read, and
		// load the lower one's tray with a background read (which does not
		// fill). Both trays now sit in a drive, so without the residency term
		// the tie would go to the lower rack index.
		cached = tb.cl.Racks()[max(set[0], set[1])]
		if _, err := cached.FS.ReadFile(p, path); err != nil {
			return err
		}
		if _, err := tb.cl.Racks()[min(set[0], set[1])].FS.ReadFileClass(p, path, sched.Prefetch); err != nil {
			return err
		}
		p.Sleep(5 * time.Second) // let the fill land
		ix, _ := cached.FS.MV.Lookup(path)
		if _, ok := cached.FS.Buckets.Resident(ix.Current().Parts[0]); !ok {
			return fmt.Errorf("rack %d did not cache the image", cached.Index)
		}
		fetches := map[*Rack]int64{}
		for _, r := range tb.cl.Racks() {
			fetches[r] = count(r, "olfs.fetch_tasks")
		}
		hits := count(cached, "olfs.cache_hits")
		got, err := tb.cl.ReadFile(p, path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("routed read returned wrong bytes")
		}
		for _, r := range tb.cl.Racks() {
			if count(r, "olfs.fetch_tasks") != fetches[r] {
				t.Errorf("rack %d fetched a tray for a read its peer had cached", r.Index)
			}
		}
		if count(cached, "olfs.cache_hits") != hits+1 {
			t.Errorf("cached rack served no buffer hit (cache_hits %d -> %d)", hits, count(cached, "olfs.cache_hits"))
		}
		return nil
	})
}

// TestClusterShedWriteKeepsOverloadCause: a write that admission control
// sheds on every target fails with an error that still matches
// writepath.ErrOverload, so callers can tell "retry later" from a hard
// failure.
func TestClusterShedWriteKeepsOverloadCause(t *testing.T) {
	tb := newBed(t, 1, 1, func(c *Config) {
		c.Stack.FS.AutoBurn = false
		c.Stack.FS.Write.Admission = writepath.AdmissionConfig{
			Enabled:       true,
			CapacityBytes: 2 << 20,
			MaxWait:       time.Second,
		}
	})
	defer tb.cl.Stop()
	const writers = 96
	var failed, acked, lostCause int
	tb.run(t, func(p *sim.Proc) error {
		done := sim.NewQueue[error](tb.env)
		for i := 0; i < writers; i++ {
			path := fmt.Sprintf("/flood/f%03d", i)
			tb.env.Go(path, func(wp *sim.Proc) {
				done.Push(tb.cl.WriteFile(wp, path, pat(256<<10, byte(i))))
			})
		}
		for i := 0; i < writers; i++ {
			err, _ := done.Pop(p)
			switch {
			case err == nil:
				acked++
			case errors.Is(err, writepath.ErrOverload):
				failed++
			default:
				failed++
				if lostCause++; lostCause == 1 {
					t.Errorf("failed write does not match writepath.ErrOverload: %v", err)
				}
			}
		}
		return nil
	})
	if failed == 0 || acked == 0 {
		t.Fatalf("test premise broken: %d acked, %d failed of %d flooded writes", acked, failed, writers)
	}
	if lostCause > 0 {
		t.Errorf("%d of %d failed writes lost their ErrOverload cause", lostCause, failed)
	}
}

// TestClusterReadsFromFailedTrays: when every replica sits on a tray marked
// DAFailed, the read still goes to a replica (olfs rebuilds what it cannot
// read from parity) instead of failing with ErrNoReplica, and each failed
// copy counts as skipped-unhealthy.
func TestClusterReadsFromFailedTrays(t *testing.T) {
	tb := newBed(t, 2, 2, func(c *Config) {
		c.Stack.FS.AutoBurn = false
		c.Stack.FS.RecycleAfterBurn = true
	})
	defer tb.cl.Stop()
	const path = "/failed/f"
	data := pat(200<<10, 11)
	tb.run(t, func(p *sim.Proc) error {
		if err := tb.cl.WriteFile(p, path, data); err != nil {
			return err
		}
		for _, r := range tb.cl.Racks() {
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return err
			}
			if _, err := c.Wait(p); err != nil {
				return err
			}
		}
		return nil
	})
	for _, ri := range tb.cl.ReplicasOf(path) {
		fs := tb.cl.Racks()[ri].FS
		ix, ok := fs.MV.Lookup(path)
		if !ok {
			t.Fatalf("rack %d has no index for %s", ri, path)
		}
		addr, ok := fs.Cat.Locate(ix.Current().Parts[0])
		if !ok {
			t.Fatalf("rack %d: image of %s not on disc", ri, path)
		}
		fs.Cat.SetDAState(addr.Tray, image.DAFailed)
	}
	tb.run(t, func(p *sim.Proc) error {
		got, err := tb.cl.ReadFile(p, path)
		if err != nil {
			return fmt.Errorf("read with every replica on a failed tray: %w", err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("payload mismatch")
		}
		return nil
	})
	if got := tb.cl.m.skipUnhealthy.Value(); got != 2 {
		t.Errorf("skipped_unhealthy = %d, want 2 (both copies on failed trays)", got)
	}
}

// elapsed runs fn as one simulation process, drains the clock and returns the
// virtual time fn took.
func (tb *testBed) elapsed(t *testing.T, fn func(p *sim.Proc) error) time.Duration {
	t.Helper()
	var d time.Duration
	tb.run(t, func(p *sim.Proc) error {
		start := p.Now()
		err := fn(p)
		d = p.Now() - start
		return err
	})
	return d
}

// TestClusterReplicatedWriteAcksAtSlowestReplica: the replicas of a write are
// written at once, so on idle racks the write takes as long as the slower of
// the single-rack writes it is made of, not their sum.
func TestClusterReplicatedWriteAcksAtSlowestReplica(t *testing.T) {
	data := pat(300<<10, 7)
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	got := tb.elapsed(t, func(p *sim.Proc) error { return tb.cl.WriteFile(p, "/ack/f", data) })
	set := tb.cl.ReplicasOf("/ack/f")
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2 racks", set)
	}

	// The same two writes, one rack at a time, on an identical idle
	// federation.
	solo := newBed(t, 3, 2, nil)
	defer solo.cl.Stop()
	var slowest, sum time.Duration
	for _, ri := range set {
		d := solo.elapsed(t, func(p *sim.Proc) error { return solo.cl.racks[ri].FS.WriteFile(p, "/ack/f", data) })
		slowest, sum = max(slowest, d), sum+d
	}
	if slowest == 0 {
		t.Fatal("test premise broken: a single-rack write took no virtual time")
	}
	if got != slowest {
		t.Errorf("replicated write took %v, want the slower replica's %v (the sum is %v)", got, slowest, sum)
	}
	if n := tb.cl.m.replicaWrites.Value(); n != 2 {
		t.Errorf("replica_writes = %d, want 2", n)
	}
}

// failoverRun writes /fo/f on a fresh 3-rack, 2-replica federation with a
// rack.offline fault armed on rack offline, and returns what the write left:
// its replica set, the failover count, its virtual duration and every event
// the simulation emitted.
func failoverRun(t *testing.T, offline int, data []byte) (set []int, failovers int64, took time.Duration, events []string) {
	t.Helper()
	tb := newBed(t, 3, 2, nil)
	defer tb.cl.Stop()
	tb.env.AddEventSink(func(ev sim.TraceEvent) {
		events = append(events, fmt.Sprintf("%d %s %s %s", ev.T, ev.Proc, ev.Kind, ev.Msg))
	})
	if _, err := tb.plane.ArmSpec(fmt.Sprintf("rack.offline@rack%d", offline)); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	took = tb.elapsed(t, func(p *sim.Proc) error { return tb.cl.WriteFile(p, "/fo/f", data) })
	tb.run(t, func(p *sim.Proc) error {
		got, err := tb.cl.ReadFile(p, "/fo/f")
		if err == nil && !bytes.Equal(got, data) {
			err = errors.New("payload mismatch")
		}
		return err
	})
	return tb.cl.ReplicasOf("/fo/f"), tb.cl.m.failovers.Value(), took, events
}

// TestClusterWriteFailoverRound: a target that goes offline during a
// replicated write is replaced, and the substitute is written in a second
// round after the first one joins. The surviving target stays first in the
// replica set, the substitute follows, one failover is counted, and the same
// seed replays the same events.
func TestClusterWriteFailoverRound(t *testing.T) {
	data := pat(300<<10, 9)
	clean := newBed(t, 3, 2, nil)
	defer clean.cl.Stop()
	clean.run(t, func(p *sim.Proc) error { return clean.cl.WriteFile(p, "/fo/f", data) })
	placed := clean.cl.ReplicasOf("/fo/f")
	if len(placed) != 2 {
		t.Fatalf("clean replica set %v, want 2 racks", placed)
	}
	dead, survivor := placed[0], placed[1]
	sub := 3 - dead - survivor // the one rack outside the placed set

	set, failovers, took, events := failoverRun(t, dead, data)
	if want := []int{survivor, sub}; !slices.Equal(set, want) {
		t.Errorf("replica set %v, want %v (survivor, then substitute)", set, want)
	}
	if failovers != 1 {
		t.Errorf("cluster.failovers = %d, want 1", failovers)
	}
	solo := newBed(t, 3, 2, nil)
	defer solo.cl.Stop()
	var rounds time.Duration
	for _, ri := range []int{survivor, sub} {
		rounds += solo.elapsed(t, func(p *sim.Proc) error { return solo.cl.racks[ri].FS.WriteFile(p, "/fo/f", data) })
	}
	if took != rounds {
		t.Errorf("write took %v, want %v: the survivor's round, then the substitute's", took, rounds)
	}

	set2, failovers2, took2, events2 := failoverRun(t, dead, data)
	if !slices.Equal(set, set2) || failovers != failovers2 || took != took2 || !slices.Equal(events, events2) {
		t.Errorf("same-seed replay diverged: set %v/%v, failovers %d/%d, took %v/%v, %d/%d events",
			set, set2, failovers, failovers2, took, took2, len(events), len(events2))
	}
}

// TestClusterWriteFailsOnEveryTarget: when every target and every substitute
// fails, the write reports the last rack's error, nothing is recorded, and a
// write shed by admission control on every rack still matches ErrOverload.
func TestClusterWriteFailsOnEveryTarget(t *testing.T) {
	t.Run("offline", func(t *testing.T) {
		tb := newBed(t, 3, 2, nil)
		defer tb.cl.Stop()
		if _, err := tb.plane.ArmSpec("rack.offline"); err != nil {
			t.Fatalf("ArmSpec: %v", err)
		}
		var werr error
		tb.run(t, func(p *sim.Proc) error {
			werr = tb.cl.WriteFile(p, "/all/f", pat(64<<10, 1))
			return nil
		})
		if werr == nil {
			t.Fatal("write succeeded with every rack offline")
		}
		// Both placed targets fail in the first round; only the first finds a
		// substitute (the third rack), which fails in the second round.
		if n := tb.cl.m.failovers.Value(); n != 1 {
			t.Errorf("cluster.failovers = %d, want 1", n)
		}
		placed := newBed(t, 3, 2, nil)
		defer placed.cl.Stop()
		placed.run(t, func(p *sim.Proc) error { return placed.cl.WriteFile(p, "/all/f", pat(64<<10, 1)) })
		set := placed.cl.ReplicasOf("/all/f")
		last := tb.cl.racks[3-set[0]-set[1]].Name
		if !errors.Is(werr, faultinject.ErrInjected) || !strings.Contains(werr.Error(), last+" went offline") {
			t.Errorf("error %q does not wrap the last rack's (%s) offline fault", werr, last)
		}
		if tb.cl.Entries() != 0 || tb.cl.ReplicasOf("/all/f") != nil {
			t.Errorf("a failed write left an entry: %d entries, set %v", tb.cl.Entries(), tb.cl.ReplicasOf("/all/f"))
		}
	})
	t.Run("shed", func(t *testing.T) {
		tb := newBed(t, 3, 2, func(c *Config) {
			c.Stack.FS.Write.Admission = writepath.AdmissionConfig{Enabled: true, CapacityBytes: 1 << 20}
		})
		defer tb.cl.Stop()
		var werr error
		tb.run(t, func(p *sim.Proc) error {
			werr = tb.cl.WriteFile(p, "/all/big", pat(2<<20, 2))
			return nil
		})
		if !errors.Is(werr, writepath.ErrOverload) {
			t.Errorf("write shed on every rack: error %v does not match writepath.ErrOverload", werr)
		}
	})
}

// TestClusterSingleReplicaWriteAllocs: a Replicas=1 write runs its one target
// on the caller (Fork's inline path) with a table from the free list, so the
// federation adds at most 4 allocations to the rack's own write.
func TestClusterSingleReplicaWriteAllocs(t *testing.T) {
	tb := newBed(t, 1, 1, func(c *Config) { c.Stack.FS.AutoBurn = false })
	defer tb.cl.Stop()
	data := pat(4<<10, 5)
	allocs := func(write func(p *sim.Proc) error) float64 {
		return testing.AllocsPerRun(50, func() { tb.run(t, write) })
	}
	rack := allocs(func(p *sim.Proc) error { return tb.cl.racks[0].FS.WriteFile(p, "/allocs/rack", data) })
	fed := allocs(func(p *sim.Proc) error { return tb.cl.WriteFile(p, "/allocs/fed", data) })
	t.Logf("%.0f allocs per federation write, %.0f per rack write", fed, rack)
	if fed-rack > 4 {
		t.Errorf("a Replicas=1 write allocates %.0f more than the rack's own write, want at most 4", fed-rack)
	}
}
