package ros

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"ros/internal/bucket"
	"ros/internal/sim"
)

// Soak parameters: a closed loop that offers well over the optical drain
// rate, so the write buffer sits at its high-water mark for the entire run
// and deadline shedding is continuously exercised.
const (
	soakWorkers   = 10
	soakWriteSize = 192 << 10
	soakCapacity  = 48 << 20
	soakMaxWait   = 2 * time.Minute
)

// soakOut is one worker's ledger, accumulated deterministically in virtual
// time and merged in worker order after the join.
type soakOut struct {
	ackedPaths []string
	ackedSeed  []byte
	shed       []string
	lats       []time.Duration
	offered    int64
	badErr     error
}

func soakOptions() Options {
	return Options{
		Rollers:     1,
		DriveGroups: 2,
		BufferSlots: 60,
		BucketBytes: 2 << 20,
		BurnCap:     380e6,
		FS: FSConfig{
			DataDiscs:        2,
			ParityDiscs:      1,
			RecycleAfterBurn: true,
		},
		Write: WriteConfig{
			Admission: AdmissionConfig{
				Enabled:       true,
				CapacityBytes: soakCapacity,
				MaxWait:       soakMaxWait,
			},
		},
	}
}

// soakPayload returns n bytes of b[i] = seed + byte(i*7). The pattern repeats
// every 256 bytes, so one period is computed and the rest is copied.
func soakPayload(n int, seed byte) []byte {
	b := make([]byte, n)
	period := min(n, 256)
	for i := 0; i < period; i++ {
		b[i] = seed + byte(i*7)
	}
	for filled := period; filled < n; filled *= 2 {
		copy(b[filled:], b[:filled])
	}
	return b
}

func TestSoakPayloadPattern(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000, soakWriteSize} {
		for _, seed := range []byte{0, 37, 255} {
			for i, got := range soakPayload(n, seed) {
				if want := seed + byte(i*7); got != want {
					t.Fatalf("soakPayload(%d, %d)[%d] = %d, want %d", n, seed, i, got, want)
				}
			}
		}
	}
}

// driveOverload runs the closed-loop ingest for horizon, then drains the
// burn pipeline. Every worker issues its next write the moment the previous
// one resolves (ack or shed), mixing interactive and archival traffic.
// burnedAtHorizon reports data bytes on disc when the offered load stopped —
// the sustained drain rate the offered load is compared against.
func driveOverload(sys *System, horizon time.Duration) (outs []soakOut, burnedAtHorizon int64, err error) {
	outs = make([]soakOut, soakWorkers)
	err = sys.Do(func(p *Proc) error {
		done := sim.NewQueue[int](sys.Env)
		for w := 0; w < soakWorkers; w++ {
			w := w
			sys.Env.Go(fmt.Sprintf("soak-%d", w), func(wp *sim.Proc) {
				o := &outs[w]
				for seq := 0; wp.Now() < horizon && o.badErr == nil; seq++ {
					path := fmt.Sprintf("/soak/w%d/f-%06d", w, seq)
					cl := WriteInteractive
					if seq%4 == 3 {
						cl = WriteArchival
					}
					seed := byte(w*37 + seq)
					start := wp.Now()
					werr := sys.FS.WriteFileClass(wp, path, soakPayload(soakWriteSize, seed), cl)
					o.offered += soakWriteSize
					switch {
					case werr == nil:
						o.lats = append(o.lats, wp.Now()-start)
						o.ackedPaths = append(o.ackedPaths, path)
						o.ackedSeed = append(o.ackedSeed, seed)
					case errors.Is(werr, ErrOverload):
						o.shed = append(o.shed, path)
						wp.Sleep(30 * time.Second) // back off before retrying
					default:
						o.badErr = fmt.Errorf("%s: %w", path, werr)
					}
				}
				done.Push(w)
			})
		}
		for w := 0; w < soakWorkers; w++ {
			if _, ok := done.Pop(p); !ok {
				return fmt.Errorf("worker join interrupted")
			}
		}
		for _, addr := range sys.FS.Cat.DIL {
			if !addr.Parity {
				burnedAtHorizon += int64(addr.Len)
			}
		}
		p.Sleep(8 * time.Hour) // drain the burn queue
		return nil
	})
	return outs, burnedAtHorizon, err
}

// TestOverloadSoak runs the write path at a sustained >= 2x overload for two
// simulated days and checks the admission-control contract: the buffer never
// exceeds its capacity, every acknowledged write survives to be read back,
// ack latency is bounded by the admission deadline, and rejected writes are
// shed with ErrOverload and nothing else.
func TestOverloadSoak(t *testing.T) {
	horizon := 48 * time.Hour
	if testing.Short() {
		horizon = 6 * time.Hour
	}
	sys, err := New(soakOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	outs, burned, err := driveOverload(sys, horizon)
	if err != nil {
		t.Fatal(err)
	}

	adm := sys.FS.WritePath().Admission()
	if peak, cap := adm.MaxInflightBytes(), adm.Config().CapacityBytes; peak > cap {
		t.Errorf("buffer exceeded capacity: peak inflight %d > %d", peak, cap)
	}
	// After the drain the only bytes still charged are writes parked in
	// buckets that have not burned (an open bucket below the seal threshold
	// stays in the buffer indefinitely). Anything beyond that is a token
	// leak.
	// (Admission charges payload bytes; bucket occupancy adds per-file
	// framing on top, so parked is a strict upper bound.)
	byState := sys.FS.Buckets.BytesByState()
	parked := byState[bucket.StateOpen] + byState[bucket.StateFilled] + byState[bucket.StateBurning]
	if left := adm.InflightBytes(); left > parked {
		t.Errorf("inflight %d after drain exceeds the %d bytes parked in unburned buckets (token leak)", left, parked)
	}

	var lats []time.Duration
	var offered int64
	acked, shed := 0, 0
	for w, o := range outs {
		if o.badErr != nil {
			t.Fatalf("worker %d hit a non-overload error: %v", w, o.badErr)
		}
		lats = append(lats, o.lats...)
		offered += o.offered
		acked += len(o.ackedPaths)
		shed += len(o.shed)
	}
	if acked == 0 || shed == 0 {
		t.Fatalf("soak not in overload: %d acked, %d shed", acked, shed)
	}
	if burned > 0 {
		if factor := float64(offered) / float64(burned); factor < 2 {
			t.Errorf("offered/drain factor %.2f, want >= 2 (offered %d, burned %d)",
				factor, offered, burned)
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p99 := lats[len(lats)*99/100]; p99 > soakMaxWait {
		t.Errorf("p99 ack latency %v exceeds admission MaxWait %v", p99, soakMaxWait)
	}
	// A granted write waited at most MaxWait in admission; the buffer write
	// itself adds bounded service time on top.
	if max := lats[len(lats)-1]; max > soakMaxWait+30*time.Second {
		t.Errorf("max ack latency %v exceeds MaxWait + 30s service bound", max)
	}

	// Every acknowledged write must read back intact after the drain —
	// admission may shed un-acked writes, never acked ones.
	err = sys.Do(func(p *Proc) error {
		for w, o := range outs {
			for i, path := range o.ackedPaths {
				got, rerr := sys.FS.ReadFile(p, path)
				if rerr != nil {
					return fmt.Errorf("worker %d acked write %s unreadable: %w", w, path, rerr)
				}
				if !bytes.Equal(got, soakPayload(soakWriteSize, o.ackedSeed[i])) {
					return fmt.Errorf("worker %d acked write %s corrupted", w, path)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	t.Logf("soak: %v horizon, %d acked, %d shed, p99 %v, peak %d/%d bytes",
		horizon, acked, shed, lats[len(lats)*99/100], adm.MaxInflightBytes(), soakCapacity)
}
