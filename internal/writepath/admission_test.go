package writepath

import (
	"errors"
	"testing"
	"time"

	"ros/internal/obs"
	"ros/internal/sched"
	"ros/internal/sim"
)

func newAdm(cfg AdmissionConfig) (*sim.Env, *Admission) {
	env := sim.NewEnv()
	return env, NewAdmission(env, cfg, sched.Config{}, obs.New(env))
}

// run executes fn as a sim process and drains the environment.
func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatalf("simulation deadlocked (%d live)", env.Live())
	}
}

// TestAdmissionGrantReleaseBalance drives table-driven acquire/release
// sequences and checks the per-class and total token accounting after each
// step — the balance invariant the burn pipeline depends on.
func TestAdmissionGrantReleaseBalance(t *testing.T) {
	type step struct {
		op      string // "acquire" | "release"
		class   Class
		bytes   int64
		total   int64 // expected InflightBytes after the step
		byClass int64 // expected InflightClass(class) after the step
	}
	cases := []struct {
		name    string
		enabled bool
		steps   []step
	}{
		{
			name:    "disabled accounting still balances",
			enabled: false,
			steps: []step{
				{"acquire", Interactive, 100, 100, 100},
				{"acquire", Archival, 50, 150, 50},
				{"release", Interactive, 40, 110, 60},
				{"release", Archival, 50, 60, 0},
				{"release", Interactive, 60, 0, 0},
			},
		},
		{
			name:    "enabled grants within capacity",
			enabled: true,
			steps: []step{
				{"acquire", Interactive, 400, 400, 400},
				{"acquire", Archival, 300, 700, 300},
				{"release", Interactive, 400, 300, 0},
				{"release", Archival, 300, 0, 0},
			},
		},
		{
			name:    "over-release clamps instead of going negative",
			enabled: true,
			steps: []step{
				{"acquire", Interactive, 100, 100, 100},
				{"release", Interactive, 250, 0, 0},
				{"release", Archival, 10, 0, 0},
			},
		},
		{
			name:    "zero and negative sizes are no-ops",
			enabled: true,
			steps: []step{
				{"acquire", Interactive, 0, 0, 0},
				{"acquire", Archival, -5, 0, 0},
				{"release", Interactive, 0, 0, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, a := newAdm(AdmissionConfig{Enabled: tc.enabled, CapacityBytes: 1000, MaxWait: -1})
			run(t, env, func(p *sim.Proc) {
				for i, s := range tc.steps {
					switch s.op {
					case "acquire":
						if err := a.Acquire(p, s.class, s.bytes); err != nil {
							t.Fatalf("step %d: Acquire: %v", i, err)
						}
					case "release":
						a.Release(s.class, s.bytes)
					}
					if got := a.InflightBytes(); got != s.total {
						t.Errorf("step %d: InflightBytes = %d, want %d", i, got, s.total)
					}
					if got := a.InflightClass(s.class); got != s.byClass {
						t.Errorf("step %d: InflightClass(%v) = %d, want %d", i, s.class, got, s.byClass)
					}
				}
			})
		})
	}
}

// TestAdmissionReservationFloors pins the per-class floors at 10 %
// (interactive) and 5 % (archival) of capacity: a class is admitted up to
// its floor even while the bucket is congested, and the uncongested path
// never hands another class's unused reservation away.
func TestAdmissionReservationFloors(t *testing.T) {
	cfg := AdmissionConfig{Enabled: true, CapacityBytes: 1000, MaxWait: -1}
	t.Run("floor grant under congestion", func(t *testing.T) {
		env, a := newAdm(cfg)
		run(t, env, func(p *sim.Proc) {
			// Interactive claims everything net of archival's 50-byte reserve;
			// 950 >= the 900-byte high-water mark.
			if err := a.Acquire(p, Interactive, 950); err != nil {
				t.Fatalf("interactive 950 (capacity net of a 5%% archival floor): %v", err)
			}
			if !a.Congested() {
				t.Fatal("bucket not congested at 950/1000")
			}
			// Congested: interactive (above its floor) must queue...
			ti := a.Begin(Interactive, 10)
			if ti.Granted() {
				t.Error("interactive granted while congested and above its floor")
			}
			// ...but archival still admits instantly up to its floor, and no
			// further.
			if tk := a.Begin(Archival, 50); !tk.Granted() {
				t.Error("archival denied within its 50-byte floor while congested")
			}
			ta := a.Begin(Archival, 1)
			if ta.Granted() {
				t.Error("archival granted past its 50-byte floor while congested")
			}
			if got := a.InflightBytes(); got != 1000 {
				t.Errorf("InflightBytes = %d, want 1000", got)
			}
			a.Cancel(ti)
			a.Cancel(ta)
		})
	})
	t.Run("interactive floor grant under congestion", func(t *testing.T) {
		env, a := newAdm(cfg)
		run(t, env, func(p *sim.Proc) {
			// Archival claims everything net of interactive's 100-byte reserve.
			if err := a.Acquire(p, Archival, 900); err != nil {
				t.Fatalf("archival 900 (capacity net of a 10%% interactive floor): %v", err)
			}
			if !a.Congested() {
				t.Fatal("bucket not congested at 900/1000")
			}
			if tk := a.Begin(Interactive, 100); !tk.Granted() {
				t.Error("interactive denied within its 100-byte floor while congested")
			}
		})
	})
	t.Run("unused reserves protected while uncongested", func(t *testing.T) {
		env, a := newAdm(cfg)
		run(t, env, func(p *sim.Proc) {
			// Empty bucket, not congested: interactive may only claim
			// capacity net of archival's unused 50-byte reserve.
			if tk := a.Begin(Interactive, 951); tk.Granted() {
				t.Error("interactive 951 granted; only 950 available net of archival reserve")
			} else if err := tk.Wait(p); !errors.Is(err, ErrOverload) {
				t.Errorf("impossible-size request got %v, want ErrOverload", err)
			}
			if tk := a.Begin(Interactive, 950); !tk.Granted() {
				t.Error("interactive 950 denied; fits net of archival reserve")
			}
		})
	})
	t.Run("total never exceeds capacity", func(t *testing.T) {
		env, a := newAdm(cfg)
		run(t, env, func(p *sim.Proc) {
			_ = a.Acquire(p, Interactive, 950)
			_ = a.Begin(Archival, 50) // full reserve
			_ = a.Begin(Archival, 50) // past it: queued, not granted
			if got := a.InflightBytes(); got > 1000 {
				t.Errorf("InflightBytes = %d exceeds capacity 1000", got)
			}
			if got := a.MaxInflightBytes(); got > 1000 {
				t.Errorf("MaxInflightBytes = %d exceeds capacity 1000", got)
			}
		})
	})
}

// TestAdmissionHysteresis: congestion sets at the 90 % high-water mark and
// only clears back at the 75 % low-water mark, so the admission state does
// not flap around a single threshold. Each threshold is pinned to the byte.
func TestAdmissionHysteresis(t *testing.T) {
	env, a := newAdm(AdmissionConfig{Enabled: true, CapacityBytes: 1000, MaxWait: -1})
	run(t, env, func(p *sim.Proc) {
		steps := []struct {
			op        string
			bytes     int64
			congested bool
		}{
			{"acquire", 899, false}, // one byte below HW
			{"acquire", 1, true},    // 900 = HW: set
			{"release", 100, true},  // 800 > LW: still set (hysteresis)
			{"release", 49, true},   // 751: one byte above LW, still set
			{"release", 1, false},   // 750 = LW: clear
			{"acquire", 149, false}, // 899 < HW: stays clear
			{"acquire", 1, true},    // 900: set again
		}
		for i, s := range steps {
			if s.op == "acquire" {
				a.grantBytes(Interactive, s.bytes) // direct: congestion must not block the table
			} else {
				a.Release(Interactive, s.bytes)
			}
			if got := a.Congested(); got != s.congested {
				t.Errorf("step %d (%s %d): Congested = %v, want %v (inflight %d)",
					i, s.op, s.bytes, got, s.congested, a.InflightBytes())
			}
		}
	})
}

// fill saturates the bucket to exactly its capacity: interactive takes
// everything net of the archival floor, archival takes its floor. (A single
// full-capacity request would be shed — no class may claim another class's
// reservation.)
func fill(t *testing.T, p *sim.Proc, a *Admission) {
	t.Helper()
	cap := a.Config().CapacityBytes
	arch := int64(reserve[Archival] * float64(cap))
	if err := a.Acquire(p, Interactive, cap-arch); err != nil {
		t.Fatalf("fill interactive %d: %v", cap-arch, err)
	}
	if err := a.Acquire(p, Archival, arch); err != nil {
		t.Fatalf("fill archival %d: %v", arch, err)
	}
	if got := a.InflightBytes(); got != cap {
		t.Fatalf("fill left inflight %d, want %d", got, cap)
	}
}

// TestAdmissionCancelMidWait: withdrawing a queued ticket unblocks its
// waiter with ErrCanceled, charges nothing, and leaves the queue clean.
func TestAdmissionCancelMidWait(t *testing.T) {
	env, a := newAdm(AdmissionConfig{Enabled: true, CapacityBytes: 100, MaxWait: -1})
	var waitErr error
	waited := false
	env.Go("setup", func(p *sim.Proc) {
		fill(t, p, a)
		tk := a.Begin(Interactive, 50)
		if tk.Granted() {
			t.Error("ticket granted with a full bucket")
		}
		env.Go("waiter", func(wp *sim.Proc) {
			waitErr = tk.Wait(wp)
			waited = true
		})
		p.Sleep(time.Second)
		if !a.Cancel(tk) {
			t.Error("Cancel returned false for a waiting ticket")
		}
		if a.Cancel(tk) {
			t.Error("second Cancel returned true")
		}
	})
	env.Run()
	if !waited {
		t.Fatal("waiter never unblocked")
	}
	if !errors.Is(waitErr, ErrCanceled) {
		t.Errorf("Wait returned %v, want ErrCanceled", waitErr)
	}
	if a.QueueLen() != 0 {
		t.Errorf("queue length %d after cancel, want 0", a.QueueLen())
	}
	if got := a.InflightBytes(); got != 100 {
		t.Errorf("InflightBytes = %d after cancel, want 100 (nothing charged)", got)
	}
}

// TestAdmissionDeadlineShed: a queued write whose MaxWait passes without a
// grant is shed with ErrOverload by the watchdog.
func TestAdmissionDeadlineShed(t *testing.T) {
	env, a := newAdm(AdmissionConfig{Enabled: true, CapacityBytes: 100, MaxWait: time.Minute})
	var gotErr error
	var shedAt time.Duration
	run(t, env, func(p *sim.Proc) {
		fill(t, p, a) // nothing ever releases
		start := p.Now()
		gotErr = a.Acquire(p, Interactive, 50)
		shedAt = p.Now() - start
	})
	if !errors.Is(gotErr, ErrOverload) {
		t.Fatalf("Acquire returned %v, want ErrOverload", gotErr)
	}
	if shedAt != time.Minute {
		t.Errorf("shed after %v, want exactly MaxWait (1m)", shedAt)
	}
	if a.Sheds() != 1 {
		t.Errorf("Sheds = %d, want 1", a.Sheds())
	}
}

// TestAdmissionQueueBound: the admission queue holds 64 writes; the next
// arrival is shed immediately instead of queueing without bound.
func TestAdmissionQueueBound(t *testing.T) {
	env, a := newAdm(AdmissionConfig{Enabled: true, CapacityBytes: 100, MaxWait: -1})
	run(t, env, func(p *sim.Proc) {
		fill(t, p, a)
		var queued []*Ticket
		for i := 0; i < 64; i++ {
			tk := a.Begin(Interactive, 1)
			if tk.Granted() {
				t.Fatal("ticket granted with a full bucket")
			}
			if err := tk.err; err != nil {
				t.Fatalf("ticket %d shed with %v; the queue holds 64", i, err)
			}
			queued = append(queued, tk)
		}
		if a.QueueLen() != 64 {
			t.Fatalf("queue length %d, want 64", a.QueueLen())
		}
		over := a.Begin(Interactive, 1)
		if err := over.Wait(p); !errors.Is(err, ErrOverload) {
			t.Errorf("65th ticket got %v, want immediate ErrOverload", err)
		}
		if a.QueueLen() != 64 {
			t.Errorf("queue length %d after overflow shed, want 64", a.QueueLen())
		}
		for _, tk := range queued {
			a.Cancel(tk)
		}
	})
}

// TestAdmissionDrainOrder: release drains the queue in QoS order —
// interactive outranks archival regardless of arrival order — and strict
// priority means a small archival write cannot bypass an interactive head
// that does not fit yet.
func TestAdmissionDrainOrder(t *testing.T) {
	env, a := newAdm(AdmissionConfig{Enabled: true, CapacityBytes: 100, MaxWait: -1})
	run(t, env, func(p *sim.Proc) {
		fill(t, p, a)                 // interactive 95, archival 5
		arch := a.Begin(Archival, 10) // enqueued first (above its floor)
		inter := a.Begin(Interactive, 60)
		if arch.Granted() || inter.Granted() {
			t.Fatal("tickets granted with a full bucket")
		}
		// 30 free: the interactive head (60) does not fit, and the archival
		// 10 behind it must NOT sneak past.
		a.Release(Interactive, 30)
		if arch.Granted() {
			t.Error("archival bypassed the interactive head of the drain order")
		}
		// 90 free: interactive 60 drains first (higher QoS weight), leaving
		// 30 free — then archival 10 follows in the same dispatch pass.
		a.Release(Interactive, 60)
		if !inter.Granted() {
			t.Error("interactive ticket not granted with 90 bytes free")
		}
		if !arch.Granted() {
			t.Error("archival ticket not granted after interactive drained")
		}
		if got := a.InflightBytes(); got != 80 {
			t.Errorf("InflightBytes = %d, want 80 (5 + 60 + 5 + 10 remaining)", got)
		}
	})
}
