package obs

import (
	"testing"
	"time"

	"ros/internal/sim"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`
		# default pack excerpt
		read-p99: threshold olfs.op.read.p99 > 120s for 2m window 5m
		queue-deep: threshold sched.queue_depth avg > 64 for 5m
		drive-dead: threshold optical.drives_dead > 0
		rerepl-stuck: absence cluster.rerepl_backlog above 0 window 10m
		write-slo: burnrate cluster.route_errors / cluster.writes budget 0.01 x 10 window 5m; extra: threshold g >= 1
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 6 {
		t.Fatalf("parsed %d rules, want 6", len(rules))
	}
	r := rules[0]
	if r.Name != "read-p99" || r.Kind != RuleThreshold || r.Series != "olfs.op.read.p99" ||
		r.Op != ">" || r.Value != float64(120*time.Second) || r.For != 2*time.Minute || r.Window != 5*time.Minute {
		t.Errorf("read-p99 parsed wrong: %+v", r)
	}
	if rules[1].Agg != "avg" {
		t.Errorf("queue-deep agg = %q, want avg", rules[1].Agg)
	}
	if rules[3].Kind != RuleAbsence || rules[3].Value != 0 || rules[3].Window != 10*time.Minute {
		t.Errorf("rerepl-stuck parsed wrong: %+v", rules[3])
	}
	br := rules[4]
	if br.Kind != RuleBurnRate || br.TotalSeries != "cluster.writes" || br.Budget != 0.01 || br.Mult != 10 {
		t.Errorf("write-slo parsed wrong: %+v", br)
	}
	// Round-trip through String.
	again, err := ParseRule(br.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", br.String(), err)
	}
	if again != br {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", again, br)
	}
	for _, bad := range []string{
		"noname threshold x > 1",
		"r: threshold x ~ 1",
		"r: threshold x > banana",
		"r: burnrate a b",
		"r: threshold x > 1 bogus 2",
		"r: unknown x",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid rule", bad)
		}
	}
}

// harness builds an env + registry + sampler + engine ticking every 10s (the
// default 5m window; rules that need a shorter one say "window").
func alertHarness(t *testing.T, rules string) (*sim.Env, *Registry, *Sampler, *AlertEngine) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	reg := New(env)
	s := NewSampler(env, SamplerConfig{Interval: 10 * time.Second})
	s.AddSource("", reg)
	e := NewAlertEngine(env, s, reg)
	rs, err := ParseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	e.AddRules(rs...)
	e.Attach()
	s.Start()
	return env, reg, s, e
}

func TestThresholdFireAndResolve(t *testing.T) {
	env, reg, _, e := alertHarness(t, "deep: threshold q > 3 clear 20s")
	env.Go("w", func(p *sim.Proc) {
		reg.Gauge("q").Set(10) // bad from the start
		p.Sleep(25 * time.Second)
		reg.Gauge("q").Set(0) // healed at t=25s
		p.Sleep(time.Minute)
	})
	env.Run()
	in := e.Incidents()
	if len(in) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", in)
	}
	// For=0: fires at the first sample (t=10s).
	if in[0].FiredNS != int64(10*time.Second) {
		t.Errorf("fired at %v, want 10s", time.Duration(in[0].FiredNS))
	}
	// Healed at 25s, first good sample 30s, clear 20s → resolves at 50s.
	if in[0].ResolvedNS != int64(50*time.Second) {
		t.Errorf("resolved at %v, want 50s", time.Duration(in[0].ResolvedNS))
	}
	if in[0].Open {
		t.Error("incident still open after resolve")
	}
	if got := reg.Counter("alert.fired").Value(); got != 1 {
		t.Errorf("alert.fired = %d, want 1", got)
	}
	if got := reg.Counter("alert.resolved").Value(); got != 1 {
		t.Errorf("alert.resolved = %d, want 1", got)
	}
	if got := reg.Gauge("alert.firing").Value(); got != 0 {
		t.Errorf("alert.firing gauge = %d, want 0", got)
	}
	if got := reg.Counter("events.alert.fire").Value(); got != 1 {
		t.Errorf("events.alert.fire = %d, want 1 (trace event not emitted)", got)
	}
}

func TestForDampsTransients(t *testing.T) {
	env, reg, _, e := alertHarness(t, "deep: threshold q > 3 for 25s")
	env.Go("w", func(p *sim.Proc) {
		reg.Gauge("q").Set(10)
		p.Sleep(15 * time.Second) // bad for only ~1 sample
		reg.Gauge("q").Set(0)
		p.Sleep(time.Minute)
	})
	env.Run()
	if in := e.Incidents(); len(in) != 0 {
		t.Fatalf("transient blip fired %+v, want none (For damping)", in)
	}
}

// TestFlapSuppression: a condition oscillating faster than ClearFor must
// produce exactly one incident — the relapse reopens nothing and resolves
// only after a full quiet ClearFor.
func TestFlapSuppression(t *testing.T) {
	env, reg, _, e := alertHarness(t, "flappy: threshold q > 3 clear 30s")
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ { // flap: 10s bad, 10s good, ...
			reg.Gauge("q").Set(10)
			p.Sleep(10 * time.Second)
			reg.Gauge("q").Set(0)
			p.Sleep(10 * time.Second)
		}
		reg.Gauge("q").Set(0)
		p.Sleep(2 * time.Minute)
	})
	env.Run()
	in := e.Incidents()
	if len(in) != 1 {
		t.Fatalf("flapping produced %d incidents, want 1 (suppressed)", len(in))
	}
	if in[0].Open {
		t.Error("incident never resolved after the flapping stopped")
	}
	if fired := reg.Counter("alert.fired").Value(); fired != 1 {
		t.Errorf("alert.fired = %d, want 1 — fire/resolve churn within one window", fired)
	}
}

func TestAbsenceRuleStuckBacklog(t *testing.T) {
	env, reg, _, e := alertHarness(t, "stuck: absence backlog above 0 window 30s")
	env.Go("w", func(p *sim.Proc) {
		reg.Gauge("backlog").Set(5) // stuck, never drains
		p.Sleep(2 * time.Minute)
		reg.Gauge("backlog").Set(0) // finally drains
		p.Sleep(2 * time.Minute)
	})
	env.Run()
	in := e.Incidents()
	if len(in) != 1 {
		t.Fatalf("incidents = %+v, want 1", in)
	}
	// Needs a fully-covered window before it can fire: with the first tick at
	// 10s and one interval of slack, that's the t=30s sample.
	if in[0].FiredNS != int64(30*time.Second) {
		t.Errorf("fired at %v, want 30s (first fully-covered window)", time.Duration(in[0].FiredNS))
	}
	if in[0].Open {
		t.Error("absence alert never resolved after the backlog drained")
	}
}

func TestAbsenceIgnoresDrainingBacklog(t *testing.T) {
	env, reg, _, e := alertHarness(t, "stuck: absence backlog above 0 window 30s")
	env.Go("w", func(p *sim.Proc) {
		for v := int64(20); v >= 0; v-- { // steadily draining
			reg.Gauge("backlog").Set(v)
			p.Sleep(10 * time.Second)
		}
	})
	env.Run()
	if in := e.Incidents(); len(in) != 0 {
		t.Fatalf("draining backlog fired %+v, want none", in)
	}
}

func TestBurnRateRule(t *testing.T) {
	env, reg, _, e := alertHarness(t, "slo: burnrate errs / total budget 0.01 x 10 window 30s clear 30s")
	env.Go("w", func(p *sim.Proc) {
		// Phase 1: healthy traffic, 0.1% errors — under 10x budget.
		for i := 0; i < 6; i++ {
			reg.Counter("total").Add(1000)
			reg.Counter("errs").Add(1)
			p.Sleep(10 * time.Second)
		}
		// Phase 2: 50% errors — way past burn rate.
		for i := 0; i < 3; i++ {
			reg.Counter("total").Add(100)
			reg.Counter("errs").Add(50)
			p.Sleep(10 * time.Second)
		}
		// Phase 3: recovery.
		for i := 0; i < 12; i++ {
			reg.Counter("total").Add(1000)
			p.Sleep(10 * time.Second)
		}
	})
	env.Run()
	in := e.Incidents()
	if len(in) != 1 {
		t.Fatalf("incidents = %+v, want 1", in)
	}
	if in[0].Open {
		t.Error("burn-rate alert never resolved after recovery")
	}
	if in[0].FiredNS < int64(60*time.Second) || in[0].FiredNS > int64(90*time.Second) {
		t.Errorf("fired at %v, want during the error burst", time.Duration(in[0].FiredNS))
	}
	// 0/0 traffic must not fire: fresh engine, no activity at all.
	env2, _, s2, e2 := alertHarness(t, "slo: burnrate errs / total")
	env2.Go("idle", func(p *sim.Proc) { p.Sleep(time.Minute) })
	env2.Run()
	_ = s2
	if in := e2.Incidents(); len(in) != 0 {
		t.Fatalf("0/0 burn rate fired %+v, want none", in)
	}
}

func TestDetectionAndRecoveryLatencyRecorded(t *testing.T) {
	env, reg, _, e := alertHarness(t, "deep: threshold q > 3 for 20s clear 20s")
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		reg.Gauge("q").Set(10) // onset t=5s (observed at t=10s sample)
		p.Sleep(40 * time.Second)
		reg.Gauge("q").Set(0) // healed t=45s
		p.Sleep(2 * time.Minute)
	})
	env.Run()
	in := e.Incidents()
	if len(in) != 1 {
		t.Fatalf("incidents = %+v, want 1", in)
	}
	// Onset observed at the t=10s sample; For=20s → fires at t=30s.
	if in[0].OnsetNS != int64(10*time.Second) || in[0].FiredNS != int64(30*time.Second) {
		t.Errorf("onset=%v fired=%v, want onset 10s fired 30s",
			time.Duration(in[0].OnsetNS), time.Duration(in[0].FiredNS))
	}
	det := reg.Histogram("alert.detection")
	rec := reg.Histogram("alert.recovery")
	if det.Count() != 1 || det.Max() != int64(20*time.Second) {
		t.Errorf("alert.detection: count=%d max=%v, want 1 sample of 20s", det.Count(), time.Duration(det.Max()))
	}
	if rec.Count() != 1 {
		t.Errorf("alert.recovery: count=%d, want 1", rec.Count())
	}
}

// TestAlertDeterministicTimestamps: two same-seed runs must fire and resolve
// at identical virtual timestamps.
func TestAlertDeterministicTimestamps(t *testing.T) {
	run := func() []Incident {
		env, reg, _, e := alertHarness(t, "deep: threshold q > 3 clear 20s")
		env.Go("w", func(p *sim.Proc) {
			reg.Gauge("q").Set(10)
			p.Sleep(25 * time.Second)
			reg.Gauge("q").Set(0)
			p.Sleep(time.Minute)
		})
		env.Run()
		return e.Incidents()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("incident counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("incident %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
