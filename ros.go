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
//	sys.Do(func(p *sim.Proc) error {
//	    if err := sys.Cluster.WriteFile(p, "/archive/report.pdf", data); err != nil {
//	        return err
//	    }
//	    got, err := sys.Cluster.ReadFile(p, "/archive/report.pdf")
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

// ErrOverload is returned by writes shed by admission control: the write
// buffer is over its high-water mark and the request could not be queued
// (queue full) or waited past its deadline. The data was never accepted —
// callers retry with backoff. Writes that were acknowledged are never shed.
var ErrOverload = writepath.ErrOverload

// Admission classes, for FS.WriteFileClass. Each holds a fixed floor of the
// write buffer that admission grants it even while congested (10 % for
// interactive, 5 % for archival writes).
const (
	// WriteInteractive — foreground ingest (default for WriteFile).
	WriteInteractive = writepath.Interactive
	// WriteArchival — background traffic: direct-writing delivery,
	// re-replication.
	WriteArchival = writepath.Archival
)

// Rack health states of the federation layer, usable with
// System.Cluster.SetHealth.
const (
	RackUp       = cluster.HealthUp
	RackDegraded = cluster.HealthDegraded
	RackOffline  = cluster.HealthOffline
)

// FSConfig holds the OLFS settings a caller chooses. Zero fields take
// olfs.Config's defaults; New builds the rest of the olfs.Config from the
// other Options fields.
type FSConfig struct {
	// DataDiscs and ParityDiscs set the per-tray redundancy (§4.7); each
	// zero field is defaulted on its own, to 2 data and 1 parity disc.
	DataDiscs   int
	ParityDiscs int
	// BurnStagger serializes drive burn starts within an array (default
	// 43 s, so a 12x25GB array takes the paper's 1146 s, Fig 9).
	BurnStagger time.Duration
	// Forepart stores the first 256 KB of each file in MV to bound
	// first-byte latency on roller misses (§4.8).
	Forepart bool
	// RecycleAfterBurn frees a bucket slot as soon as its image is burned
	// instead of keeping it as read cache.
	RecycleAfterBurn bool
}

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
	// FS tunes OLFS; zero fields take the paper-calibrated defaults.
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

	// TraceCapacity bounds the causal-trace journal, one for the whole
	// System (0 = default 256 per rack the System starts with; negative
	// disables request tracing entirely).
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
	// FS and Buffer are rack 0's OLFS and write buffer. Files written
	// through FS live on rack 0 only and bypass the federation catalog, so
	// Cluster.ReadFile and the re-replication daemon do not see them. Every
	// other per-rack handle is in Cluster.Racks().
	FS     *olfs.FS
	Buffer *pagecache.Volume
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
	env := sim.NewEnv()
	reg := obs.New(env)
	// The shared clock's structured events are counted once, here: every
	// emitted event increments the system registry's "events.<kind>".
	env.AddEventSink(func(ev sim.TraceEvent) {
		reg.Counter("events." + ev.Kind).Add(1)
	})
	plane := faultinject.New(env, o.FaultSeed)
	plane.AttachObs(reg)
	if o.Faults != "" {
		if _, err := plane.ArmSpec(o.Faults); err != nil {
			return nil, err
		}
	}
	pol, err := sched.ParsePolicy(o.SchedPolicy)
	if err != nil {
		return nil, err
	}
	fsCfg := olfs.Config{
		DataDiscs:        o.FS.DataDiscs,
		ParityDiscs:      o.FS.ParityDiscs,
		AutoBurn:         !o.DisableAutoBurn,
		BurnStagger:      o.FS.BurnStagger,
		Forepart:         o.FS.Forepart,
		RecycleAfterBurn: o.FS.RecycleAfterBurn,
		Sched:            sched.Config{Policy: pol},
		Write:            o.Write,
		Trace:            obs.TracerConfig{Capacity: o.TraceCapacity, SampleEvery: o.TraceSampleEvery},
	}
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
	cl, err := cluster.New(env, cluster.Config{
		Racks:    o.Racks, // cluster.New builds at least one
		Replicas: o.Replicas,
		Stack: cluster.StackConfig{
			Rollers:     o.Rollers,
			DriveGroups: o.DriveGroups,
			Media:       o.Media,
			BufferSlots: o.BufferSlots,
			BucketBytes: o.BucketBytes,
			BurnCap:     o.BurnCap,
			FS:          fsCfg,
			Obs:         reg,
		},
		Sampler: sampler,
	})
	if err != nil {
		return nil, err
	}
	r0 := cl.Racks()[0]
	return &System{
		Env: env, FS: r0.FS, Buffer: r0.Buffer,
		Obs: reg, Faults: plane, Cluster: cl, Telemetry: sampler, Alerts: alerts,
	}, nil
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

// Close ends every simulation process of the System (sim.Env.Close). Only a
// System left with processes blocked needs it — after Do reported a deadlock,
// or when a process never finished: once Do returns on a drained System no
// goroutine of it remains, and it is garbage-collected like any other value
// when dropped. Call Close from outside the simulation; nothing calls it
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
