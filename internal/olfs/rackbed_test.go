package olfs_test

import (
	"strconv"
	"testing"
	"time"

	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/olfs"
	"ros/internal/sim"
)

// rackBed is the seed-replay harness of this package's fault-injection
// tests: one cluster.Rack (library, MV array, write buffer, OLFS) on its own
// environment, assembled as cluster.NewRackStack's small standard testbed
// (its default library and redundancy, 1 MB buckets, 1 s burn stagger) with
// a fault plane attached, so tests arm rules and replay failing seeds.
type rackBed struct {
	Env *sim.Env
	*cluster.Rack
	Plane *faultinject.Plane
}

// rackBedOptions tune the bed away from the standard small configuration.
type rackBedOptions struct {
	// Seed seeds both the environment's workload source and the fault plane
	// (0 keeps the engine default of 1 and a plane seed of 1).
	Seed int64
	// Faults is a fault-rule spec (faultinject.ParseSpec grammar) armed
	// before the test body runs.
	Faults string
	// BufferSlots sizes the write buffer as cluster.StackConfig does
	// (default 48, which holds 96 one-megabyte buckets).
	BufferSlots int
	// Config mutates the bed's olfs.Config (auto-burn on, 1 s burn stagger;
	// zero fields take olfs's defaults). The bucket size is the bed's (1 MB).
	Config func(*olfs.Config)
}

// newRackBed assembles a rackBed through cluster.NewRackStack. Failures
// during assembly abort the test.
func newRackBed(t *testing.T, opt rackBedOptions) *rackBed {
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
		AutoBurn:    true,
		BurnStagger: time.Second, // keep multi-disc tests quick in virtual time
	}
	if opt.Config != nil {
		opt.Config(&cfg)
	}
	r, err := cluster.NewRackStack(env, 0, cluster.StackConfig{
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
			t.Fatalf("arming faults %q: %v", opt.Faults, err)
		}
	}
	return &rackBed{Env: env, Rack: r, Plane: plane}
}

// Run executes fn as a simulation process and drains the environment. A
// deadlock fails the test with the seed and the injected fault schedule, so
// the failure replays exactly.
func (b *rackBed) Run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	b.Env.Go("test", fn)
	b.Env.Run()
	if b.Env.Deadlocked() {
		t.Fatalf("simulation deadlocked (%d live)\n%s", b.Env.Live(), b.Replay())
	}
}

// Replay formats the bed's seed and injected fault schedule for failure
// messages: re-running with the same seed and spec reproduces the run.
func (b *rackBed) Replay() string {
	return "replay: seed=" + strconv.FormatInt(b.Plane.Seed(), 10) +
		"\ninjected faults:\n" + b.Plane.ScheduleString()
}

// pat returns the standard deterministic test pattern: byte(i)*3 + seed.
func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}
