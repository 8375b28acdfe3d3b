// Package ros is a library-level reproduction of "ROS: A Rack-based Optical
// Storage System with Inline Accessibility for Long-Term Data Preservation"
// (Yan et al., EuroSys 2017).
//
// A System assembles the full stack on a deterministic discrete-event
// simulation: the 42U mechanical library (rollers, robotic arm, PLC), groups
// of 12 Blu-ray drives with the paper's measured burn/read speed curves, the
// tiered SSD/HDD buffer, and OLFS — the optical library file system that
// presents a single POSIX-style namespace with inline accessibility while
// burning data to write-once discs in the background.
//
// Quick start:
//
//	sys, _ := ros.New(ros.Options{})
//	defer sys.Close()
//	sys.Do(func(p *sim.Proc) error {
//	    if err := sys.FS.WriteFile(p, "/archive/report.pdf", data); err != nil {
//	        return err
//	    }
//	    got, err := sys.FS.ReadFile(p, "/archive/report.pdf")
//	    ...
//	})
//
// All I/O happens inside simulation processes (sim.Proc); virtual time
// advances through mechanical and burning delays instantly in host time.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results.
package ros

import (
	"fmt"
	"time"

	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// Re-exported types for the public API surface.
type (
	// Proc is a simulation process handle; all System I/O takes one.
	Proc = sim.Proc
	// Env is the discrete-event simulation environment.
	Env = sim.Env
	// FSConfig tunes OLFS (redundancy, policies, overheads).
	FSConfig = olfs.Config
	// WriteConfig tunes the write path: admission control in front of the
	// write buffer (see Options.Write).
	WriteConfig = writepath.Config
	// AdmissionConfig is the write-buffer token bucket (WriteConfig.Admission).
	AdmissionConfig = writepath.AdmissionConfig
	// BatchConfig is the burn set-size switch (WriteConfig.Batch).
	BatchConfig = writepath.BatchConfig
	// TrayID addresses a 12-disc tray in a roller.
	TrayID = rack.TrayID
	// MediaType selects the disc generation.
	MediaType = optical.MediaType
)

// Disc generations.
const (
	Media25GB  = optical.Media25
	Media100GB = optical.Media100
)

// Read policies for the all-drives-burning case (§4.8 of the paper).
const (
	WaitForBurn   = olfs.WaitForBurn
	InterruptBurn = olfs.InterruptBurn
)

// ErrOverload is returned by writes shed by admission control: the write
// buffer is over its high-water mark and the request could not be queued
// (queue full) or waited past its deadline. The data was never accepted —
// callers retry with backoff. Writes that were acknowledged are never shed.
var ErrOverload = writepath.ErrOverload

// Admission classes for WriteConfig.Admission.Reserve and per-class status.
const (
	// WriteInteractive — foreground ingest (default for WriteFile).
	WriteInteractive = writepath.Interactive
	// WriteArchival — background traffic: direct-mode mover, re-replication.
	WriteArchival = writepath.Archival
)

// Rack health states of the federation layer, usable with
// System.Cluster.SetHealth.
const (
	RackUp       = cluster.HealthUp
	RackDegraded = cluster.HealthDegraded
	RackOffline  = cluster.HealthOffline
)

// Options size a System. The zero value builds a laptop-friendly instance:
// one roller of 25 GB discs, two drive groups, 30 buffer slots of 8 MB
// buckets and 2+1 redundancy. PrototypeOptions returns the paper's PB-scale
// configuration.
type Options struct {
	// Rollers (1-2) and DriveGroups (1-4) size the mechanical library.
	Rollers     int
	DriveGroups int
	// Media selects the disc generation (default Media25GB).
	Media MediaType
	// BufferSlots and BucketBytes size the disk write buffer / read cache.
	// The buffer holds about twice BufferSlots buckets (the default 30
	// gives 60 slots; see cluster.StackConfig).
	BufferSlots int
	BucketBytes int64
	// BurnCap caps a drive group's aggregate burn throughput (bytes/s);
	// 380e6 reproduces the paper's Fig 9 pipeline. 0 = uncapped.
	BurnCap float64
	// FS tunes OLFS; zero fields take the paper-calibrated defaults. New
	// owns FS.AutoBurn, FS.Sched.Policy, FS.Trace, FS.BucketBytes, FS.Write
	// and the registries FS.Obs and FS.Sched.Obs, and rejects a value set
	// there: set DisableAutoBurn, SchedPolicy, TraceCapacity/TraceSampleEvery,
	// BucketBytes and Write instead (New builds the registries itself).
	FS FSConfig
	// SchedPolicy selects the mechanical scheduler policy: "fifo" (legacy
	// arrival-order arbitration, the default) or "qos-scan" (QoS classes with
	// deadline aging, SCAN/elevator tray ordering and LRU victim selection).
	SchedPolicy string
	// DisableAutoBurn turns off automatic burning (burn explicitly with
	// FS.FlushAndBurn). By default full image sets burn as they form.
	DisableAutoBurn bool
	// Write tunes the write path: write-buffer admission control
	// (Write.Admission). The zero value keeps admission accounting on but
	// never blocking; every burn takes one full image set either way.
	Write WriteConfig

	// Racks federates this many identical rack stacks behind one namespace
	// (internal/cluster); 0 means 1. A one-rack system is a federation too
	// and can grow with System.Cluster.AddRack.
	Racks int
	// Replicas is the copies the federation keeps per file (default 2),
	// clamped to Racks; a later AddRack does not raise it.
	Replicas int

	// FaultSeed seeds the deterministic fault plane's random source (0 uses
	// seed 1). The plane is always registered; with no rules armed it is
	// inert.
	FaultSeed int64
	// Faults arms fault-injection rules at assembly time, in the
	// faultinject.ParseSpec grammar (e.g. "optical.read:p=0.01;media.lse:once").
	Faults string

	// SampleEvery enables time-series telemetry: every registered metric is
	// sampled into ring-buffer series at this virtual period and the alert
	// engine evaluates its rules after each pass. 0 disables telemetry and
	// alerting (System.Telemetry and System.Alerts are then nil).
	SampleEvery time.Duration
	// Rules appends alert rules in the obs.ParseRules grammar, e.g.
	// "deep: threshold sched.queue_depth > 64 for 5m", to the built-in
	// DefaultRules pack. Only meaningful with SampleEvery > 0.
	Rules string

	// TraceCapacity bounds the causal-trace journal (0 = default 256;
	// negative disables request tracing entirely).
	TraceCapacity int
	// TraceSampleEvery keeps 1 of every N error-free traces (<=1 keeps
	// all). Error/retry traces are always captured.
	TraceSampleEvery int
}

// PrototypeOptions mirrors the paper's §5.1 evaluation prototype: two
// rollers of 6120 100 GB discs (1.224 PB raw), 24 drives, 11+1 redundancy,
// full-size buckets.
func PrototypeOptions() Options {
	return Options{
		Rollers:     2,
		DriveGroups: 2,
		Media:       Media100GB,
		BufferSlots: 24,
		BucketBytes: Media100GB.Capacity(),
		BurnCap:     380e6,
		FS:          FSConfig{DataDiscs: 11, ParityDiscs: 1},
	}
}

// System is an assembled ROS instance.
type System struct {
	Env *Env
	// Library, FS and Buffer are rack 0's stack. Files written through FS
	// live on rack 0 only and bypass the federation catalog, so
	// Cluster.ReadFile and the re-replication daemon do not see them.
	Library *rack.Library
	FS      *olfs.FS
	Buffer  *pagecache.Volume
	// Obs is the system registry: the federation's cluster.* metrics, the
	// fault plane's fault.* and the alert engine's alert.*. Every rack
	// records into its own registry; Stats, MergedObs and RackObs read them.
	Obs *obs.Registry
	// Faults is the deterministic fault-injection plane. Always present;
	// inert until rules are armed (Options.Faults or Faults.ArmSpec).
	Faults *faultinject.Plane
	// Cluster is the federation of Options.Racks racks (at least one); never
	// nil. Routed namespace operations go through
	// Cluster.WriteFile/ReadFile/OpenFile.
	Cluster *cluster.Cluster
	// Telemetry is the time-series sampler, non-nil when Options.SampleEvery
	// is set. The system registry is its "" source and every rack's registry
	// a source labeled with the rack's name ("rack0", ...).
	Telemetry *obs.Sampler
	// Alerts is the SLO alert engine evaluated after every sampling pass,
	// non-nil when Options.SampleEvery is set.
	Alerts *obs.AlertEngine
}

// DefaultRuleSpec is the built-in alert pack in the obs.ParseRules grammar,
// covering every layer: olfs read latency, scheduler queueing, optical drive
// health, and the federation (rack availability, stuck re-replication, and a
// write-SLO burn rate). Per-rack rules evaluate once per rack-labeled series.
const DefaultRuleSpec = `
	olfs-read-p99: threshold olfs.op.read.p99 > 15m for 5m
	sched-queue-deep: threshold sched.queue_depth avg > 64 for 5m
	optical-drive-dead: threshold optical.drives_dead > 0
	cluster-rack-offline: threshold cluster.racks_offline > 0
	cluster-rerepl-stuck: absence cluster.rerepl_backlog above 0 window 10m
	cluster-write-slo: burnrate cluster.route_errors / cluster.writes budget 0.01 x 10 window 5m
	write-buffer-full: threshold writepath.buffer_pct > 90 for 5m
`

// DefaultRules parses DefaultRuleSpec.
func DefaultRules() []obs.Rule {
	rules, err := obs.ParseRules(DefaultRuleSpec)
	if err != nil {
		panic("ros: invalid DefaultRuleSpec: " + err.Error())
	}
	return rules
}

// New assembles a System on a fresh simulation environment.
func New(o Options) (*System, error) {
	if err := checkOwnedFS(o.FS); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	if o.Rollers == 0 {
		o.Rollers = 1
	}
	if o.DriveGroups == 0 {
		o.DriveGroups = 2
	}
	if o.BufferSlots == 0 {
		o.BufferSlots = 30
	}
	if o.BucketBytes == 0 {
		o.BucketBytes = 8 << 20
	}
	reg := obs.New(env)
	plane := faultinject.New(env, o.FaultSeed)
	plane.AttachObs(reg)
	if o.Faults != "" {
		if _, err := plane.ArmSpec(o.Faults); err != nil {
			return nil, err
		}
	}
	cfg := o.FS
	if cfg.DataDiscs == 0 {
		cfg.DataDiscs = 2
		cfg.ParityDiscs = 1
	}
	cfg.AutoBurn = !o.DisableAutoBurn
	cfg.Write = o.Write
	pol, err := sched.ParsePolicy(o.SchedPolicy)
	if err != nil {
		return nil, err
	}
	cfg.Sched.Policy = pol
	cfg.Trace = obs.TracerConfig{Capacity: o.TraceCapacity, SampleEvery: o.TraceSampleEvery}
	var sampler *obs.Sampler
	var alerts *obs.AlertEngine
	if o.SampleEvery > 0 {
		sampler = obs.NewSampler(env, obs.SamplerConfig{Interval: o.SampleEvery})
		sampler.AddSource("", reg)
		alerts = obs.NewAlertEngine(env, sampler, reg)
		alerts.AddRules(DefaultRules()...)
		if o.Rules != "" {
			rules, err := obs.ParseRules(o.Rules)
			if err != nil {
				return nil, err
			}
			alerts.AddRules(rules...)
		}
		alerts.Attach()
		sampler.Start()
	}
	stack := cluster.StackConfig{
		Rollers:     o.Rollers,
		DriveGroups: o.DriveGroups,
		Media:       o.Media,
		BufferSlots: o.BufferSlots,
		BucketBytes: o.BucketBytes,
		BurnCap:     o.BurnCap,
		FS:          cfg,
		Obs:         reg,
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	cl, err := cluster.New(env, cluster.Config{
		Racks:    o.Racks, // cluster.New builds at least one
		Replicas: o.Replicas,
		Stack:    stack,
		Sampler:  sampler,
	})
	if err != nil {
		return nil, err
	}
	r0 := cl.Racks()[0]
	return &System{
		Env: env, Library: r0.Lib, FS: r0.FS, Buffer: r0.Buffer,
		Obs: reg, Faults: plane, Cluster: cl, Telemetry: sampler, Alerts: alerts,
	}, nil
}

// checkOwnedFS rejects an Options.FS that sets a field New fills in itself,
// naming the Options field that carries the value instead.
func checkOwnedFS(fs FSConfig) error {
	for _, c := range []struct {
		set  bool
		name string
		use  string
	}{
		{fs.AutoBurn, "AutoBurn", "Options.DisableAutoBurn"},
		{fs.Sched.Policy != 0, "Sched.Policy", "Options.SchedPolicy"},
		{fs.Sched.Obs != nil, "Sched.Obs", "the registries New builds (System.Obs and each rack's Reg)"},
		{fs.Trace != (obs.TracerConfig{}), "Trace", "Options.TraceCapacity and Options.TraceSampleEvery"},
		{fs.BucketBytes != 0, "BucketBytes", "Options.BucketBytes"},
		{fs.Obs != nil, "Obs", "the registries New builds (System.Obs and each rack's Reg)"},
		{fs.Write != (WriteConfig{}), "Write", "Options.Write"},
	} {
		if c.set {
			return fmt.Errorf("ros: Options.FS.%s is set by New; use %s", c.name, c.use)
		}
	}
	return nil
}

// Do runs fn as a simulation process and drains the environment to
// quiescence, returning fn's error (or a deadlock diagnosis).
func (s *System) Do(fn func(p *Proc) error) error {
	var err error
	s.Env.Go("user", func(p *sim.Proc) {
		err = fn(p)
	})
	s.Env.Run()
	if err == nil && s.Env.Deadlocked() {
		err = fmt.Errorf("ros: simulation deadlocked (%d processes blocked)", s.Env.Live())
	}
	return err
}

// Close ends every simulation process of the System (sim.Env.Close) so that
// the System and the buffers its daemons hold can be garbage-collected. Call
// it from outside the simulation when done with the System; nothing calls it
// implicitly, and the System cannot run again afterwards.
func (s *System) Close() { s.Env.Close() }

// Stats is a snapshot of system counters. Every count (files, bytes, burns,
// fetches, cache hits, tray loads, ...) is in Obs; read one with
// Obs.Counter(name), e.g. Obs.Counter("olfs.files_written").
type Stats struct {
	// TotalDiscs is the disc count over every rack's library.
	TotalDiscs int

	// Obs is the unified metrics snapshot: every counter, gauge and latency
	// histogram (p50/p95/p99) across sim, rack, optical, mv, pagecache and
	// olfs, sorted by name for deterministic serialization.
	Obs obs.Snapshot

	// Sim is the simulation engine's own counters (events dispatched,
	// processes spawned, coroutines alive and at peak, peak event-queue
	// depth). They are host-side facts, so they stay out of the Obs registry.
	Sim sim.Stats
}

// Stats returns the current counters. The Obs snapshot is the system-wide
// merge: the system registry (cluster.*, fault.*, alert.*) combined with
// every rack's registry, histograms merged by bucket counts. MergedObs and
// RackObs give the same views directly.
func (s *System) Stats() Stats {
	discs := 0
	for _, r := range s.Cluster.Racks() {
		discs += r.Lib.TotalDiscs()
	}
	return Stats{
		TotalDiscs: discs,
		Obs:        s.MergedObs(),
		Sim:        s.Env.Stats(),
	}
}

// MergedObs returns the full metrics view: the system registry merged with
// every rack's registry.
func (s *System) MergedObs() obs.Snapshot {
	snaps := []obs.Snapshot{s.Obs.Snapshot()}
	for _, r := range s.Cluster.Racks() {
		snaps = append(snaps, r.Reg.Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}

// RackObs returns rack ri's metrics snapshot (the per-rack drill-down); the
// zero snapshot when ri is out of range.
func (s *System) RackObs(ri int) obs.Snapshot { return s.Cluster.RackSnapshot(ri) }

// PrometheusText renders every metric in the Prometheus text exposition
// format: the system registry unlabeled plus one rack="rackN" labeled sample
// set per rack.
func (s *System) PrometheusText() string {
	snaps := []obs.LabeledSnapshot{{Label: "", Snap: s.Obs.Snapshot()}}
	return obs.PrometheusText(append(snaps, s.Cluster.LabeledSnapshots()...)...)
}
