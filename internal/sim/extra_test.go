package sim

import (
	"testing"
	"time"
)

func TestGoDaemonExcludedFromLiveAccounting(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	env.GoDaemon("service", func(p *Proc) {
		for {
			if _, ok := q.Pop(p); !ok {
				return
			}
		}
	})
	done := false
	env.Go("worker", func(p *Proc) {
		q.Push(1)
		p.Sleep(time.Second)
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("worker did not finish")
	}
	// The daemon is parked on the queue, but the env is NOT deadlocked.
	if env.Deadlocked() {
		t.Fatal("daemon counted as deadlock")
	}
	if env.Live() != 0 {
		t.Fatalf("Live = %d with only a daemon parked", env.Live())
	}
}

func TestDaemonFlag(t *testing.T) {
	env := NewEnv()
	var d1, d2 bool
	p1 := env.Go("normal", func(p *Proc) { d1 = p.Daemon() })
	p2 := env.GoDaemon("daemon", func(p *Proc) { d2 = p.Daemon() })
	env.Run()
	if d1 || !d2 {
		t.Errorf("daemon flags: normal=%v daemon=%v", d1, d2)
	}
	if p1.Daemon() || !p2.Daemon() {
		t.Error("Daemon() accessor wrong")
	}
}

func TestProcAccessors(t *testing.T) {
	env := NewEnv()
	env.Go("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Env() != env {
			t.Error("Env accessor wrong")
		}
		p.Sleep(time.Second)
		if p.Now() != env.Now() {
			t.Error("Now mismatch")
		}
	})
	env.Run()
}

func TestResourceWaitingCount(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	env.Go("holder", func(p *Proc) {
		res.Acquire(p)
		p.Sleep(time.Second)
		if res.Waiting() != 2 {
			t.Errorf("Waiting = %d, want 2", res.Waiting())
		}
		if res.InUse() != 1 || res.Capacity() != 1 {
			t.Errorf("InUse=%d Capacity=%d", res.InUse(), res.Capacity())
		}
		res.Release()
	})
	for i := 0; i < 2; i++ {
		env.Go("waiter", func(p *Proc) {
			res.Acquire(p)
			res.Release()
		})
	}
	env.Run()
}
