// Package testkit is the shared seed-replay regression harness for chaos and
// fault-injection tests across olfs, raid and rack. It assembles the small
// standard testbed (1 roller, 2 drive groups, 25 GB discs, 1 MB buckets,
// 2+1 redundancy) with a fault plane pre-registered, so tests arm rules and
// replay failing seeds instead of copy-pasting stack assembly.
package testkit

import (
	"strconv"
	"testing"
	"time"

	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/sim"
)

// Bed is one assembled test stack: a cluster.Rack (library, MV array, write
// buffer, OLFS) on its own environment, with the fault plane.
type Bed struct {
	Env *sim.Env
	*cluster.Rack
	Plane *faultinject.Plane
}

// Options tune the bed away from the standard small configuration.
type Options struct {
	// Seed seeds both the environment's workload source and the fault plane
	// (0 keeps the engine default of 1 and a plane seed of 1).
	Seed int64
	// Faults is a fault-rule spec (faultinject.ParseSpec grammar) armed
	// before the test body runs.
	Faults string
	// BufferSlots sizes the write buffer as cluster.StackConfig does
	// (default 48, which holds 96 one-megabyte buckets).
	BufferSlots int
	// Config mutates the olfs.Config after defaults are applied. The bucket
	// size is the bed's (1 MB) and the registry the rack's.
	Config func(*olfs.Config)
}

// New assembles a Bed through cluster.NewRackStack. Failures during assembly
// abort the test.
func New(t *testing.T, opt Options) *Bed {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	env.Seed(seed)
	plane := faultinject.New(env, seed)
	slots := opt.BufferSlots
	if slots == 0 {
		slots = 48
	}
	cfg := olfs.Config{
		DataDiscs:   2,
		ParityDiscs: 1,
		AutoBurn:    true,
		BurnStagger: time.Second, // keep multi-disc tests quick in virtual time
	}
	if opt.Config != nil {
		opt.Config(&cfg)
	}
	r, err := cluster.NewRackStack(env, 0, cluster.StackConfig{
		Rollers:     1,
		DriveGroups: 2,
		Media:       optical.Media25,
		BufferSlots: slots,
		BucketBytes: 1 << 20,
		FS:          cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	plane.AttachObs(r.Reg)
	if opt.Faults != "" {
		if _, err := plane.ArmSpec(opt.Faults); err != nil {
			t.Fatalf("testkit: arming faults %q: %v", opt.Faults, err)
		}
	}
	return &Bed{Env: env, Rack: r, Plane: plane}
}

// Run executes fn as a simulation process and drains the environment. A
// deadlock fails the test with the seed and the injected fault schedule, so
// the failure replays exactly.
func (b *Bed) Run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	b.Env.Go("test", fn)
	b.Env.Run()
	if b.Env.Deadlocked() {
		t.Fatalf("simulation deadlocked (%d live)\n%s", b.Env.Live(), b.Replay())
	}
}

// Replay formats the bed's seed and injected fault schedule for failure
// messages: re-running with the same seed and spec reproduces the run.
func (b *Bed) Replay() string {
	return "replay: seed=" + strconv.FormatInt(b.Plane.Seed(), 10) +
		"\ninjected faults:\n" + b.Plane.ScheduleString()
}

// Pat returns the standard deterministic test pattern: byte(i)*3 + seed.
func Pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}
