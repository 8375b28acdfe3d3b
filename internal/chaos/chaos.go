// Package chaos runs randomized fault-injection campaigns against a full ROS
// system and checks end-to-end invariants afterwards.
//
// A campaign is deterministic: one seed drives the workload mix, the file
// contents and the fault plane, so a failing run reproduces exactly from the
// seed plus fault spec printed in the report. The shape is three phases:
//
//  1. Chaos: N concurrent workers issue a mixed write / read-verify /
//     open-handle / sync / flush-burn / scrub-repair workload while fault
//     rules fire. Writes, reads and handles route through the federation
//     namespace (System.Cluster), so they land on replica sets and fail
//     over; sync, burn and repair target a random rack. With more than one
//     rack the mix gains a cross-rack failover op (write, kill the primary
//     rack, read via a replica, byte-compare). Operation errors are expected
//     and tolerated here — but a read that *succeeds* must return byte-exact
//     data, including reads through handles held open across tray churn, and
//     no read may fail with optical.ErrNoDisc (a read that reached a drive
//     whose tray was in transit).
//  2. Heal: the fault plane is cleared, rack health is re-probed and
//     under-replicated files are requeued, dirty buckets are flushed and
//     burned, every used tray is scrubbed and repaired until a full pass
//     comes back clean (latent sector errors and aged discs injected during
//     the chaos phase are ground out of the system through the normal repair
//     pipeline), and the re-replication backlog drains.
//  3. Oracle: every acknowledged write must read back byte-for-byte through
//     the federation — from disc before its image is cached, from the read
//     cache once it is, and from disc again after the cached copy is dropped
//     — and on every rack every parity group must verify clean, the catalog
//     must be consistent (every placed image lives on a Used tray and every
//     Used tray holds a placed image), the observability layer must have no
//     open spans, and stopping the system must leave no live or deadlocked
//     simulation processes.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ros"
	"ros/internal/bucket"
	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// DefaultFaults is the campaign's default fault mix: transient read and burn
// errors, latent sector error showers, a few arm jams, and tray load/unload
// failures (so evictions racing open read handles exercise the validity-epoch
// re-resolution path under mechanical errors too). The burn probability is
// per burn *chunk* (a drive burn is ~500 chunks), so 5e-4 still fails roughly
// one burn in five. Whole-drive and whole-disc death are left out of the
// default because with a small library they can exceed the redundancy bound,
// which is a legitimate data loss, not a repair-pipeline bug.
const DefaultFaults = "optical.read:p=0.02;optical.burn:p=0.0005;media.lse:p=0.01;rack.arm.jam:every=7,count=3;rack.tray.load:p=0.02;rack.tray.unload:p=0.02"

// Config parameterizes a campaign. The zero value (plus a seed) runs a small
// laptop-friendly campaign with DefaultFaults.
type Config struct {
	// Seed drives the workload and the fault plane (0 means 1).
	Seed int64
	// Faults is a faultinject spec; empty uses DefaultFaults. "none" runs a
	// fault-free campaign (useful as a baseline).
	Faults string
	// Workers is the number of concurrent workload processes (default 3).
	Workers int
	// Ops is the number of operations per worker (default 40).
	Ops int
	// FileBytes caps the size of written files (default 192 KiB).
	FileBytes int
	// Overload adds an overload phase after the chaos workload: closed-loop
	// ingest workers flood the write path far past burn capacity against
	// enabled admission control (small token bucket, deadline shedding). The
	// oracle then additionally checks that inflight write-buffer bytes never
	// exceeded capacity, every shed write got writepath.ErrOverload, and all
	// admission tokens returned after the heal. Off by default so existing
	// seeds replay unchanged.
	Overload bool
	// Opts overrides the system assembly; zero fields take chaos-friendly
	// defaults (1 MB buckets, disc-backed reads after burn).
	Opts ros.Options
}

// Report is the outcome of a campaign.
type Report struct {
	Seed   int64
	Faults string

	Ops      map[string]int64 // attempted operations by kind
	OpErrors map[string]int64 // tolerated operation errors by kind

	Injected      int64            // fault firings
	FaultCounters map[string]int64 // fault.* observability counters
	Schedule      string           // the exact fault schedule (time-ordered)

	HealRounds int
	Violations []string // invariant violations; empty means the campaign passed

	// Shed counts writes rejected by admission control during an overload
	// phase (Config.Overload); every one carried writepath.ErrOverload.
	Shed int64

	// Alert-oracle results (campaigns run with telemetry enabled, the
	// default). AlertIncidents is the engine's full fire→resolve log;
	// AlertDetection maps a rule to the latency between the first matching
	// fault injection and the alert firing, AlertRecovery to the matched
	// incident's fire→resolve duration.
	AlertIncidents []obs.Incident
	AlertDetection map[string]time.Duration
	AlertRecovery  map[string]time.Duration

	// SeriesTail is the trailing window of every sampled series at campaign
	// end, so a JSON-exported report carries the telemetry that explains it.
	SeriesTail []obs.SeriesDump
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Replay returns the block to print when a campaign fails: the seed and
// fault spec reproduce the run bit-for-bit, and the schedule shows exactly
// what was injected and when.
func (r *Report) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay: -chaos -seed %d -faults %q\n", r.Seed, r.Faults)
	fmt.Fprintf(&b, "injected faults (%d):\n%s", r.Injected, r.Schedule)
	return b.String()
}

// String summarizes the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d faults=%q injected=%d heal-rounds=%d\n",
		r.Seed, r.Faults, r.Injected, r.HealRounds)
	for _, k := range sortedKeys(r.Ops) {
		fmt.Fprintf(&b, "  op %-8s %5d attempted, %d tolerated errors\n", k, r.Ops[k], r.OpErrors[k])
	}
	if r.Shed > 0 {
		fmt.Fprintf(&b, "  overload: %d writes shed (ErrOverload)\n", r.Shed)
	}
	for _, k := range sortedKeys(r.FaultCounters) {
		fmt.Fprintf(&b, "  %-24s %d\n", k, r.FaultCounters[k])
	}
	if len(r.AlertIncidents) > 0 {
		fmt.Fprintf(&b, "  alerts: %d incidents\n", len(r.AlertIncidents))
	}
	for _, rule := range sortedKeysD(r.AlertDetection) {
		line := fmt.Sprintf("  alert %-22s detected in %v", rule, r.AlertDetection[rule])
		if rec, ok := r.AlertRecovery[rule]; ok {
			line += fmt.Sprintf(", recovered in %v", rec)
		}
		b.WriteString(line + "\n")
	}
	if r.Failed() {
		fmt.Fprintf(&b, "VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
		b.WriteString(r.Replay())
	} else {
		b.WriteString("  all invariants held\n")
	}
	return b.String()
}

// ackedFile is a write the system acknowledged; the oracle holds it to the
// durability contract.
type ackedFile struct {
	path string
	data []byte
}

// Run executes one campaign and returns its report. The error is non-nil
// only for setup problems (bad spec, assembly failure) — invariant
// violations land in Report.Violations.
func Run(cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.FileBytes <= 0 {
		cfg.FileBytes = 192 << 10
	}
	spec := cfg.Faults
	if spec == "" {
		spec = DefaultFaults
	}
	if spec == "none" {
		spec = ""
	}
	opts := cfg.Opts
	if opts.BucketBytes == 0 {
		opts.BucketBytes = 1 << 20
	}
	if opts.BufferSlots == 0 {
		opts.BufferSlots = 12
	}
	if opts.FS.DataDiscs == 0 {
		opts.FS.DataDiscs = 2
		opts.FS.ParityDiscs = 1
		// Burned buckets leave the buffer so reads exercise the optical path.
		opts.FS.RecycleAfterBurn = true
	}
	opts.FaultSeed = cfg.Seed
	opts.Faults = spec
	if cfg.Overload && opts.Write == (ros.WriteConfig{}) {
		// A small token bucket with a short deadline makes the closed loop
		// overrun capacity quickly and shed visibly within the campaign.
		opts.Write = ros.WriteConfig{
			Admission: ros.AdmissionConfig{
				Enabled:       true,
				CapacityBytes: 6 << 20,
				MaxWait:       90 * time.Second,
			},
		}
	}
	if opts.SampleEvery == 0 {
		// Campaigns run with telemetry and the default alert rules on, so the
		// alert oracle can hold injected faults to the detection contract.
		opts.SampleEvery = 30 * time.Second
	}

	sys, err := ros.New(opts)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.Env.Seed(cfg.Seed)

	rep := &Report{
		Seed:          cfg.Seed,
		Faults:        spec,
		Ops:           make(map[string]int64),
		OpErrors:      make(map[string]int64),
		FaultCounters: make(map[string]int64),
	}

	// Phase 1+2+3 run inside one simulation drain.
	var acked [][]ackedFile
	campaignErr := sys.Do(func(p *sim.Proc) error {
		acked = runWorkers(sys, p, cfg, rep)
		if cfg.Overload {
			acked = append(acked, runOverload(sys, p, cfg, rep))
		}

		// The fault schedule is complete once the workload stops; capture it
		// before healing (Clear keeps events, but the report should show the
		// chaos-phase injections only).
		rep.Injected = sys.Faults.Fires()
		rep.Schedule = sys.Faults.ScheduleString()

		heal(sys, p, rep)
		oracle(sys, p, flatten(acked), rep)
		if cfg.Overload {
			overloadOracle(sys, rep)
		}
		alertOracle(sys, p, rep)
		return nil
	})
	if campaignErr != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("campaign process failed: %v", campaignErr))
	}

	// Shutdown invariant: stopping every rack and draining must leave a
	// quiet, leak-free simulation.
	sys.Cluster.Stop()
	sys.Env.Run()
	if sys.Env.Deadlocked() {
		rep.Violations = append(rep.Violations, fmt.Sprintf("simulation deadlocked after stop (%d live procs)", sys.Env.Live()))
	} else if live := sys.Env.Live(); live != 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("process leak: %d live after stop+drain", live))
	}
	// Every rack has its own private registry, so the span-leak check sweeps
	// them all.
	for ri, r := range sys.Cluster.Racks() {
		if open := r.FS.Obs().OpenSpans(); open != 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("span leak: %d open spans after stop (rack %d)", open, ri))
		}
	}

	for _, c := range sys.Obs.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "fault.") {
			rep.FaultCounters[c.Name] = c.Value
		}
	}
	if sys.Telemetry != nil {
		rep.SeriesTail = sys.Telemetry.Dump(seriesTailLen)
	}
	return rep, nil
}

// runWorkers runs the concurrent workload, one Fork child per worker, and
// returns each worker's acknowledged writes.
func runWorkers(sys *ros.System, p *sim.Proc, cfg Config, rep *Report) [][]ackedFile {
	acked := make([][]ackedFile, cfg.Workers)
	_ = p.Fork("chaos.w", cfg.Workers, func(wp *sim.Proc, wi int) error {
		acked[wi] = worker(sys, wp, cfg, wi, rep)
		return nil
	})
	return acked
}

// worker runs one op stream. Each worker owns a rand stream derived from the
// campaign seed, writes only its own namespace and verifies only its own
// acked files, so no cross-worker coordination is needed and the op sequence
// is a pure function of (seed, worker index). Writes, reads and handles route
// through the federation namespace; sync/burn/repair target a random rack;
// the cross-rack op kills a file's primary rack to prove the read survives
// on a replica, and is skipped when there is no other rack.
func worker(sys *ros.System, p *sim.Proc, cfg Config, wi int, rep *Report) []ackedFile {
	cl := sys.Cluster
	racks := cl.Racks()
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(wi)*104729 + 1))
	var mine []ackedFile
	seq := 0
	for op := 0; op < cfg.Ops; op++ {
		switch pick := rng.Intn(100); {
		case pick < 40: // replicated write
			rep.Ops["write"]++
			path := fmt.Sprintf("/chaos/w%d/f%04d", wi, seq)
			n := 1024 + rng.Intn(cfg.FileBytes-1023)
			data := payload(n, cfg.Seed, wi, seq)
			seq++
			if err := cl.WriteFile(p, path, data); err != nil {
				rep.OpErrors["write"]++
				continue
			}
			mine = append(mine, ackedFile{path: path, data: data})
		case pick < 62: // read via the cheapest live replica and verify
			rep.Ops["read"]++
			if len(mine) == 0 {
				continue
			}
			f := mine[rng.Intn(len(mine))]
			got, err := cl.ReadFile(p, f.path)
			if err != nil {
				rep.OpErrors["read"]++
				noDisc(rep, "cluster read", f.path, err)
				continue
			}
			if !bytes.Equal(got, f.data) {
				// A read that succeeds must never return wrong bytes, even
				// mid-chaos: errors are acceptable, silent corruption is not.
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("mid-chaos corrupt cluster read of %s (%d bytes)", f.path, len(got)))
			}
		case pick < 70: // replica-aware handle straddling churn
			// The eviction-vs-open-handle invariant: read half a file through
			// a handle, churn another file (possibly swapping the handle's
			// tray out of its drive group), then read the second half through
			// the same handle. A successful read must return the original
			// bytes — a source silently left pointing at the swapped-in tray
			// is exactly the stale-handle bug.
			rep.Ops["handle"]++
			if len(mine) == 0 {
				continue
			}
			f := mine[rng.Intn(len(mine))]
			churn := mine[rng.Intn(len(mine))]
			fr, err := cl.OpenFile(p, f.path)
			if err != nil {
				rep.OpErrors["handle"]++
				continue
			}
			buf := make([]byte, len(f.data))
			h := len(buf) / 2
			n1, err1 := fr.ReadAt(p, buf[:h], 0)
			_, _ = cl.ReadFile(p, churn.path) // churn errors are irrelevant
			n2, err2 := fr.ReadAt(p, buf[h:], int64(h))
			fr.Close(p)
			noDisc(rep, "handle read", f.path, err1)
			noDisc(rep, "handle read", f.path, err2)
			if err1 != nil || err2 != nil || n1 < h || n2 < len(buf)-h {
				rep.OpErrors["handle"]++
				continue
			}
			if !bytes.Equal(buf, f.data) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("stale cluster handle read of %s returned wrong bytes", f.path))
			}
		case pick < 78: // cross-rack failover: write, kill primary, read replica
			if len(racks) == 1 {
				continue
			}
			rep.Ops["xrack"]++
			path := fmt.Sprintf("/chaos/w%d/x%04d", wi, seq)
			n := 1024 + rng.Intn(cfg.FileBytes-1023)
			data := payload(n, cfg.Seed, wi, seq)
			seq++
			if err := cl.WriteFile(p, path, data); err != nil {
				rep.OpErrors["xrack"]++
				continue
			}
			mine = append(mine, ackedFile{path: path, data: data})
			pri, ok := cl.PrimaryOf(path)
			if !ok {
				continue
			}
			cl.SetHealth(pri, cluster.HealthOffline)
			got, err := cl.ReadFile(p, path)
			cl.SetHealth(pri, cluster.HealthUp)
			if err != nil {
				// Another worker may have downed the surviving replica too;
				// an error is tolerated, wrong bytes never are.
				rep.OpErrors["xrack"]++
				continue
			}
			if !bytes.Equal(got, data) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("cross-rack failover read of %s returned wrong bytes", path))
			}
		case pick < 86: // metadata sync on a random rack
			rep.Ops["sync"]++
			if err := racks[rng.Intn(len(racks))].FS.Sync(p); err != nil {
				rep.OpErrors["sync"]++
			}
		case pick < 93: // force a random rack's dirty buckets out to disc
			rep.Ops["burn"]++
			c, err := racks[rng.Intn(len(racks))].FS.FlushAndBurn(p)
			if err != nil {
				rep.OpErrors["burn"]++
				continue
			}
			if _, err := c.Wait(p); err != nil {
				rep.OpErrors["burn"]++
			}
		default: // scrub-and-repair a random used tray on a random rack
			rep.Ops["repair"]++
			fs := racks[rng.Intn(len(racks))].FS
			trays := usedTrays(fs.Cat)
			if len(trays) == 0 {
				continue
			}
			rr, err := fs.ScrubAndRepair(p, trays[rng.Intn(len(trays))])
			if err != nil {
				rep.OpErrors["repair"]++
				continue
			}
			if rr.ReBurn != nil {
				if _, err := rr.ReBurn.Wait(p); err != nil {
					rep.OpErrors["repair"]++
				}
			}
		}
	}
	return mine
}

// runOverload is the overload phase: closed-loop ingest workers flood the
// write path (each issues its next write the instant the previous one is
// acknowledged or shed), far outrunning the optical drain, so admission
// control must throttle and shed. Shed writes retry after a short backoff;
// acked writes join the durability set the oracle reads back. The workers
// are separate from the chaos mix — their rand streams never touch the
// shared worker streams, so pre-existing seeds replay unchanged.
func runOverload(sys *ros.System, p *sim.Proc, cfg Config, rep *Report) []ackedFile {
	perWorker := make([][]ackedFile, cfg.Workers)
	_ = p.Fork("chaos.overload", cfg.Workers, func(wp *sim.Proc, wi int) error {
		perWorker[wi] = overloadWorker(sys, wp, cfg, wi, rep)
		return nil
	})
	var acked []ackedFile
	for _, fs := range perWorker {
		acked = append(acked, fs...)
	}
	return acked
}

// overloadWorker issues one closed-loop ingest stream. Ops land in a
// namespace disjoint from the chaos workers'.
func overloadWorker(sys *ros.System, p *sim.Proc, cfg Config, wi int, rep *Report) []ackedFile {
	rng := rand.New(rand.NewSource(cfg.Seed*31337 + int64(wi)*65537 + 5))
	var mine []ackedFile
	for op := 0; op < cfg.Ops; op++ {
		rep.Ops["ingest"]++
		path := fmt.Sprintf("/overload/w%d/f%04d", wi, op)
		n := 1024 + rng.Intn(cfg.FileBytes-1023)
		data := payload(n, cfg.Seed*3+1, wi, op)
		err := sys.Cluster.WriteFile(p, path, data)
		switch {
		case err == nil:
			mine = append(mine, ackedFile{path: path, data: data})
		case errors.Is(err, writepath.ErrOverload):
			rep.Shed++
			p.Sleep(15 * time.Second) // back off, then keep flooding
		default:
			// Fault-driven write errors are tolerated like any chaos-phase
			// error; only a shed must carry ErrOverload.
			rep.OpErrors["ingest"]++
		}
	}
	return mine
}

// overloadOracle holds the admission plane to its contract after the heal:
// inflight bytes never exceeded the token-bucket capacity, and every token
// returned once the heal burned the buffer down (an imbalance means a
// grant/release accounting leak).
func overloadOracle(sys *ros.System, rep *Report) {
	for ri, r := range sys.Cluster.Racks() {
		adm := r.FS.WritePath().Admission()
		if cap := adm.Config().CapacityBytes; adm.MaxInflightBytes() > cap {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("overload: rack %d peak inflight %d exceeded capacity %d",
					ri, adm.MaxInflightBytes(), cap))
		}
		if n := adm.InflightBytes(); n != 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("overload: rack %d leaked %d inflight bytes after heal", ri, n))
		}
	}
}

// maxHealRounds bounds the heal phase; with faults cleared each round only
// has to chase damage left over from the previous one, so convergence is
// fast — failing to converge is itself a violation.
const maxHealRounds = 6

// heal clears the fault plane, probes rack health (fault-driven offline
// states clear with the plane), requeues under-replicated files, flushes
// everything to disc, scrubs and repairs used trays until a full pass finds
// no damage, and drains the re-replication backlog before the oracle holds
// reads to the durability contract.
func heal(sys *ros.System, p *sim.Proc, rep *Report) {
	// Hold the damage visible for one sampling pass before repairing it: a
	// fault injected in the campaign's last moments must still be scraped (and
	// alerted on) or the alert oracle would race the heal.
	if sys.Telemetry != nil {
		p.Sleep(sys.Telemetry.Config().Interval)
	}
	sys.Faults.Clear()
	// FRU-swap drives killed by the fault plane; a dead drive is permanent
	// hardware loss, not something scrubbing can repair around forever.
	cl := sys.Cluster
	for _, r := range cl.Racks() {
		for _, g := range r.Lib.Groups {
			for _, d := range g.Drives {
				d.Replace()
			}
		}
	}
	cl.Probe(p)
	cl.RequeueUnderReplicated()
	for _, r := range cl.Racks() {
		drainBurns(r.FS, p, rep)
	}
	for round := 1; ; round++ {
		rep.HealRounds = round
		clean := true
		for _, r := range cl.Racks() {
			fs := r.FS
			for _, tray := range usedTrays(fs.Cat) {
				rr, err := fs.ScrubAndRepair(p, tray)
				if err != nil {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("heal: repair of %v failed: %v", tray, err))
					return
				}
				if len(rr.Scrub.BadStrips) > 0 || len(rr.BadDiscs) > 0 {
					clean = false
				}
				if rr.ReBurn != nil {
					if _, err := rr.ReBurn.Wait(p); err != nil {
						rep.Violations = append(rep.Violations,
							fmt.Sprintf("heal: re-burn after repair of %v failed: %v", tray, err))
						return
					}
				}
			}
		}
		if clean {
			break
		}
		if round >= maxHealRounds {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("heal did not converge in %d rounds", maxHealRounds))
			return
		}
	}
	// The daemon drains the backlog whenever this proc yields virtual time.
	for i := 0; cl.Backlog() > 0 && i < 4096; i++ {
		p.Sleep(time.Second)
	}
	if n := cl.Backlog(); n > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("heal: re-replication backlog did not drain (%d left)", n))
	}
}

// drainBurns flushes fs until no sealed image is left unburned. One flush
// is not enough: a burn task already in flight when the heal began can still
// hard-fail afterwards and hand its images back as filled.
func drainBurns(fs *olfs.FS, p *sim.Proc, rep *Report) {
	for waited := time.Duration(0); ; waited += time.Minute {
		if c, err := fs.FlushAndBurn(p); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("heal: flush: %v", err))
			return
		} else if _, err := c.Wait(p); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("heal: final burn: %v", err))
			return
		}
		if !burnsPending(fs) {
			return
		}
		if waited >= burnDrainLimit {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("heal: burns still pending after %v", burnDrainLimit))
			return
		}
		p.Sleep(time.Minute)
	}
}

// burnDrainLimit bounds how long the heal waits for in-flight burns.
const burnDrainLimit = 12 * time.Hour

// burnsPending reports whether any bucket is sealed but unburned, or burning.
func burnsPending(fs *olfs.FS) bool {
	for _, b := range fs.Buckets.Slots() {
		if st := b.State(); st == bucket.StateFilled || st == bucket.StateBurning {
			return true
		}
	}
	return false
}

// oracle checks the post-heal invariants across every rack.
func oracle(sys *ros.System, p *sim.Proc, acked []ackedFile, rep *Report) {
	// 1. Durability: every acknowledged write reads back byte-for-byte —
	// through the federation namespace, so replica selection and failover
	// are part of the contract being checked — at three points of the read
	// cache's life: with no cached copy (the read comes off a disc and starts
	// a fill), once the fill has landed, and after the cached copy is dropped
	// again.
	check := func(f ackedFile, stage string) bool {
		got, err := sys.Cluster.ReadFile(p, f.path)
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("acked write %s unreadable (%s): %v", f.path, stage, err))
			return false
		}
		if !bytes.Equal(got, f.data) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("acked write %s corrupt (%s, %d bytes, want %d)", f.path, stage, len(got), len(f.data)))
			return false
		}
		return true
	}
	for _, f := range acked {
		dropCached(sys, p, f.path)
		if !check(f, "uncached") {
			continue
		}
		p.Sleep(fillSettle)
		if !check(f, "cached") {
			continue
		}
		dropCached(sys, p, f.path)
		check(f, "evicted")
	}
	for ri, r := range sys.Cluster.Racks() {
		fs := r.FS
		// 2. Redundancy: every used tray's parity groups verify clean.
		for _, tray := range usedTrays(fs.Cat) {
			sr, err := fs.ScrubTray(p, tray)
			if err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("post-heal scrub of rack %d %v failed: %v", ri, tray, err))
				continue
			}
			if len(sr.BadStrips) > 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("post-heal scrub of rack %d %v found %d bad strips", ri, tray, len(sr.BadStrips)))
			}
		}
		// 3. Catalog consistency: every placed image lives on a Used tray.
		dil := make([]string, 0, len(fs.Cat.DIL))
		for k := range fs.Cat.DIL {
			dil = append(dil, k)
		}
		sort.Strings(dil)
		for _, k := range dil {
			addr := fs.Cat.DIL[k]
			if st := fs.Cat.DAState(addr.Tray); st != image.DAUsed {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("catalog: rack %d image %s placed on %v tray %v", ri, k, st, addr.Tray))
			}
		}
		// ...and conversely every Used tray holds a placed image: with the
		// burn queue drained, an empty one is a blank array that an
		// abandoned burn reserved and never gave back.
		for _, tray := range reservedTrays(fs.Cat) {
			if len(fs.Cat.ImagesOnTray(tray)) == 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("catalog: rack %d tray %v is Used with no placed image", ri, tray))
			}
		}
	}
}

// fillSettle is how long the oracle lets a read-cache fill land: a 1 MB
// image copies off its disc in well under a second.
const fillSettle = 5 * time.Second

// dropCached recycles every rack's buffer copy of path's images that is
// already on disc (burned or cached), so the next read comes off a disc.
func dropCached(sys *ros.System, p *sim.Proc, path string) {
	for _, r := range sys.Cluster.Racks() {
		fs := r.FS
		ix, ok := fs.MV.Lookup(path)
		if !ok || ix.Current() == nil {
			continue
		}
		for _, id := range ix.Current().Parts {
			if b, ok := fs.Buckets.Resident(id); ok && b.State() == bucket.StateBurned {
				_ = fs.Buckets.Recycle(p, b)
			}
		}
	}
}

// noDisc records a violation when a read failed because it reached a drive
// with no disc: a group whose tray is in transit must never serve a read.
func noDisc(rep *Report, what, path string, err error) {
	if errors.Is(err, optical.ErrNoDisc) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s of %s reached an empty drive: %v", what, path, err))
	}
}

// seriesTailLen is how many trailing samples per series a report keeps.
const seriesTailLen = 48

// alertSettle bounds how long the alert oracle waits for the fleet to go
// quiet; rules damp over their evaluation windows (minutes), so an hour of
// virtual idling is generous — an alert still firing after that is stuck.
const alertSettle = time.Hour

// faultAlerts maps injected fault points to the default alert rule that must
// detect them. Only points representing persistent, sampled state qualify:
// transient per-op faults (read errors, LSEs, jams) surface as tolerated op
// errors, not standing alerts.
var faultAlerts = map[string]string{
	faultinject.PointDriveDead:   "optical-drive-dead",
	faultinject.PointRackOffline: "cluster-rack-offline",
}

// alertOracle holds the alert engine to the detection contract: every
// injected fault with a matching default rule must have fired its alert
// within one sampling window of the first injection, every incident must
// resolve after the heal, and nothing may still be firing once the fleet has
// had time to settle.
func alertOracle(sys *ros.System, p *sim.Proc, rep *Report) {
	if sys.Alerts == nil || sys.Telemetry == nil {
		return
	}
	interval := sys.Telemetry.Config().Interval
	// Let damped rules (For / ClearFor) ride out their windows; the sampler
	// ticks weakly, so this proc's sleep is what keeps virtual time moving.
	for waited := time.Duration(0); len(sys.Alerts.Firing()) > 0 && waited < alertSettle; waited += interval {
		p.Sleep(interval)
	}
	rep.AlertIncidents = sys.Alerts.Incidents()
	rep.AlertDetection = make(map[string]time.Duration)
	rep.AlertRecovery = make(map[string]time.Duration)

	for _, point := range sortedKeysS(faultAlerts) {
		rule := faultAlerts[point]
		// First injection of this point, if any.
		t0 := time.Duration(-1)
		for _, ev := range sys.Faults.Events() {
			if ev.Point == point {
				t0 = ev.T
				break
			}
		}
		if t0 < 0 {
			continue
		}
		// An incident covers the injection if it fired no later than one
		// sampling window after t0 and was still open at t0 (workload churn —
		// e.g. xrack failover kills — may have raised the same alert earlier;
		// that standing incident is the detection).
		matched := false
		for _, in := range rep.AlertIncidents {
			if in.Rule != rule {
				continue
			}
			fired := time.Duration(in.FiredNS)
			if fired > t0+interval {
				continue
			}
			if in.ResolvedNS >= 0 && time.Duration(in.ResolvedNS) < t0 {
				continue
			}
			matched = true
			if det := fired - t0; det > 0 {
				rep.AlertDetection[rule] = det
			} else {
				rep.AlertDetection[rule] = 0 // alert was already standing
			}
			if in.ResolvedNS >= 0 {
				rep.AlertRecovery[rule] = time.Duration(in.ResolvedNS) - fired
			}
			break
		}
		if !matched {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("alert oracle: fault %s injected at %v but rule %s never fired within one sampling window (%v)",
					point, t0, rule, interval))
		}
	}

	// Post-heal quiescence: no default alert may still be firing, and every
	// incident must have resolved.
	for _, a := range sys.Alerts.Firing() {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("alert oracle: %s[%s] still %s after heal and %v settle", a.Rule, a.Label, a.State, alertSettle))
	}
	for _, in := range rep.AlertIncidents {
		if in.Open {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("alert oracle: incident %s[%s] (fired %v) never resolved", in.Rule, in.Label, time.Duration(in.FiredNS)))
		}
	}
}

// usedTrays returns the catalog's Used trays that hold placed images, in
// deterministic order. A burn task reserves its tray as Used before burning
// (§4.1), so while burns are in flight a tray can be Used but empty, and
// cannot be scrubbed yet; once the queue has drained the oracle counts an
// empty one as leaked.
func usedTrays(cat *image.Catalog) []rack.TrayID {
	var out []rack.TrayID
	for _, id := range reservedTrays(cat) {
		if len(cat.ImagesOnTray(id)) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// reservedTrays returns every tray the catalog marks Used, burned or only
// reserved, in deterministic order.
func reservedTrays(cat *image.Catalog) []rack.TrayID {
	keys := make([]string, 0, len(cat.DA))
	for k, st := range cat.DA {
		if st == image.DAUsed {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]rack.TrayID, 0, len(keys))
	for _, k := range keys {
		if id, err := rack.ParseTrayID(k); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// payload generates the deterministic content of one file.
func payload(n int, seed int64, wi, seq int) []byte {
	b := make([]byte, n)
	base := byte(seed) + byte(wi)*13 + byte(seq)*31
	for i := range b {
		b[i] = base + byte(i)*7
	}
	return b
}

func flatten(per [][]ackedFile) []ackedFile {
	var out []ackedFile
	for _, fs := range per {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysD(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysS(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
