package image

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ros/internal/sim"
)

// lseBackend wraps a Backend with injected latent sector errors: any read
// whose range touches a bad sector fails (the optical disc model's
// granularity), writes and other reads pass through.
type lseBackend struct {
	Backend
	bad map[int64]bool // sector start offsets
}

func (b *lseBackend) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	for s := off &^ (repairSector - 1); s < off+int64(len(buf)); s += repairSector {
		if b.bad[s] {
			return fmt.Errorf("lse: unreadable sector at %d", s)
		}
	}
	return b.Backend.ReadAt(p, buf, off)
}

// countGate counts admissions and tracks the concurrent high-water mark.
type countGate struct {
	env      *sim.Env
	sem      *sim.Resource
	acquires int
	inFlight int
	maxSeen  int
}

func newCountGate(env *sim.Env, width int) *countGate {
	return &countGate{env: env, sem: sim.NewResource(env, width)}
}

func (g *countGate) Acquire(p *sim.Proc) {
	g.sem.Acquire(p)
	g.acquires++
	g.inFlight++
	if g.inFlight > g.maxSeen {
		g.maxSeen = g.inFlight
	}
}

func (g *countGate) Release() {
	g.inFlight--
	g.sem.Release()
}

// buildSet makes k data backends with deterministic payloads plus generated
// parity, all of the given size.
func buildSet(t *testing.T, env *sim.Env, k, nParity int, size int64) (data, parity []Backend, payloads [][]byte) {
	t.Helper()
	for i := 0; i < k; i++ {
		d := mem(env, size)
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(j*7 + i*31 + 1)
		}
		fill(t, env, d, payload)
		data = append(data, d)
		payloads = append(payloads, payload)
	}
	for i := 0; i < nParity; i++ {
		parity = append(parity, mem(env, size))
	}
	env.Go("gen-parity", func(p *sim.Proc) {
		if err := GenerateParity(p, data, parity, size); err != nil {
			t.Errorf("GenerateParity: %v", err)
		}
	})
	env.Run()
	return data, parity, payloads
}

func TestVerifyParityParallelMatchesSerial(t *testing.T) {
	env := sim.NewEnv()
	const size = int64(2*parityChunk + 5000) // three chunk rounds, last short
	data, parity, _ := buildSet(t, env, 4, 1, size)
	env.Go("t", func(p *sim.Proc) {
		gate := newCountGate(env, len(data)+len(parity))
		bad, err := VerifyParityParallel(p, data, parity, size, gate)
		if err != nil || len(bad) != 0 {
			t.Errorf("clean set: bad=%v err=%v", bad, err)
		}
		if gate.maxSeen < 2 {
			t.Errorf("verify never overlapped column reads (max in flight = %d)", gate.maxSeen)
		}
		// Silent corruption in the middle chunk: serial and parallel must
		// flag the same strip.
		if err := data[2].WriteAt(p, []byte{0xAA}, parityChunk+12345); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		want, err := VerifyParity(p, data, parity, size)
		if err != nil {
			t.Fatalf("serial verify: %v", err)
		}
		got, err := VerifyParityParallel(p, data, parity, size, nil)
		if err != nil {
			t.Fatalf("parallel verify: %v", err)
		}
		if len(want) != 1 || len(got) != 1 || want[0] != got[0] {
			t.Errorf("bad strips: serial=%v parallel=%v", want, got)
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestRecoverParallelSingleErasure(t *testing.T) {
	env := sim.NewEnv()
	const size = int64(parityChunk + 70000)
	data, parity, payloads := buildSet(t, env, 5, 1, size)
	lost := 3
	live := append([]Backend(nil), data...)
	live[lost] = nil
	out := make([]Backend, len(data))
	out[lost] = mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := RecoverParallel(p, live, nil, parity, out, size, nil); err != nil {
			t.Fatalf("RecoverParallel: %v", err)
		}
		got := make([]byte, size)
		if err := out[lost].ReadAt(p, got, 0); err != nil {
			t.Fatalf("read recovered: %v", err)
		}
		if !bytes.Equal(got, payloads[lost]) {
			t.Error("recovered bytes differ from the lost column")
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

// TestRecoverParallelSectorFallback is the double-LSE scenario that defeats
// chunk-granular recovery: the lost column's disc still reads outside its bad
// sector (the shadow view), and a surviving column has its own LSE in the
// same chunk. At 1 MB granularity that is a double erasure with single
// parity; per sector the errors do not overlap, so everything recovers.
func TestRecoverParallelSectorFallback(t *testing.T) {
	env := sim.NewEnv()
	const size = int64(parityChunk + 40000)
	data, parity, payloads := buildSet(t, env, 3, 1, size)
	lost := 0
	shadowView := &lseBackend{Backend: data[lost], bad: map[int64]bool{3 * repairSector: true}}
	survivorLSE := &lseBackend{Backend: data[1], bad: map[int64]bool{7 * repairSector: true}}
	live := append([]Backend(nil), data...)
	live[lost] = nil
	live[1] = survivorLSE
	shadow := make([]Backend, len(data))
	shadow[lost] = shadowView
	out := make([]Backend, len(data))
	out[lost] = mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := RecoverParallel(p, live, shadow, parity, out, size, nil); err != nil {
			t.Fatalf("RecoverParallel with sector fallback: %v", err)
		}
		got := make([]byte, size)
		if err := out[lost].ReadAt(p, got, 0); err != nil {
			t.Fatalf("read recovered: %v", err)
		}
		if !bytes.Equal(got, payloads[lost]) {
			t.Error("sector-granular recovery produced wrong bytes")
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

// Two columns unreadable at the SAME sector with one parity is a genuine
// beyond-redundancy loss; the error must say so instead of writing garbage.
func TestRecoverParallelSameSectorCollision(t *testing.T) {
	env := sim.NewEnv()
	const size = int64(200000)
	data, parity, _ := buildSet(t, env, 3, 1, size)
	lost := 0
	shadowView := &lseBackend{Backend: data[lost], bad: map[int64]bool{5 * repairSector: true}}
	survivorLSE := &lseBackend{Backend: data[1], bad: map[int64]bool{5 * repairSector: true}}
	live := append([]Backend(nil), data...)
	live[lost] = nil
	live[1] = survivorLSE
	shadow := make([]Backend, len(data))
	shadow[lost] = shadowView
	out := make([]Backend, len(data))
	out[lost] = mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		err := RecoverParallel(p, live, shadow, parity, out, size, nil)
		if !errors.Is(err, ErrTooManyLost) {
			t.Errorf("same-sector double LSE: err=%v, want ErrTooManyLost", err)
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

// TestParallelReadsLeaveNoProcess holds the parallel scans to the engine's
// quiescence rule: once Run returns after VerifyParityParallel, and after a
// RecoverParallel that fails in its second chunk round with a round still to
// read, no process is live and no coroutine is left.
func TestParallelReadsLeaveNoProcess(t *testing.T) {
	env := sim.NewEnv()
	const size = int64(3 * parityChunk)
	data, parity, _ := buildSet(t, env, 3, 1, size)
	drained := func(after string) {
		t.Helper()
		if live, workers := env.Live(), env.Stats().Workers; live != 0 || workers != 0 {
			t.Errorf("after %s: %d live processes and %d coroutines, want none", after, live, workers)
		}
	}
	env.Go("verify", func(p *sim.Proc) {
		if bad, err := VerifyParityParallel(p, data, parity, size, nil); err != nil || len(bad) != 0 {
			t.Errorf("VerifyParityParallel: bad=%v err=%v", bad, err)
		}
	})
	env.Run()
	drained("VerifyParityParallel")

	// The lost column's shadow and a survivor are unreadable at the same
	// sector of the second chunk: recovery fails there, a round before the end.
	at := int64(parityChunk + 5*repairSector)
	live := append([]Backend(nil), data...)
	live[0] = nil
	live[1] = &lseBackend{Backend: data[1], bad: map[int64]bool{at: true}}
	shadow := []Backend{&lseBackend{Backend: data[0], bad: map[int64]bool{at: true}}, nil, nil}
	out := []Backend{mem(env, size), nil, nil}
	env.Go("recover", func(p *sim.Proc) {
		if err := RecoverParallel(p, live, shadow, parity, out, size, nil); !errors.Is(err, ErrTooManyLost) {
			t.Errorf("RecoverParallel: err=%v, want ErrTooManyLost", err)
		}
	})
	env.Run()
	drained("a RecoverParallel that failed mid-scan")
}
