package optical

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// memSource is a BurnSource backed by a byte slice with no time cost. It
// lends one piece per chunk.Size-aligned chunk of the slice, as a chunk store
// does.
type memSource []byte

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + byte(i>>8) + seed
	}
	return b
}

func (m memSource) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	if off+n > int64(len(m)) {
		return dst, errors.New("memSource: out of range")
	}
	for end := off + n; off < end; {
		next := min((off/chunk.Size+1)*chunk.Size, end)
		dst = append(dst, chunk.PieceOf(m[off:next:next]))
		off = next
	}
	return dst, nil
}
func (m memSource) Size() int64 { return int64(len(m)) }

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func TestMediaCapacities(t *testing.T) {
	if Media25.Capacity() != 25e9 {
		t.Errorf("25GB capacity = %d", Media25.Capacity())
	}
	if Media100.Capacity() != 100e9 {
		t.Errorf("100GB capacity = %d", Media100.Capacity())
	}
}

func TestLoadEjectStates(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if dr.State() != StateSleep {
			t.Errorf("initial state = %v", dr.State())
		}
		start := p.Now()
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		// Sleep wake pays spin-up + tray: ~3.5s.
		if d := p.Now() - start; d < 3*time.Second {
			t.Errorf("cold load took %v, want >= 3s (spin-up)", d)
		}
		if dr.State() != StateIdle || !dr.Loaded() {
			t.Errorf("state after load = %v", dr.State())
		}
		if err := dr.Load(p, disc); !errors.Is(err, ErrDriveLoaded) {
			t.Errorf("double load: %v", err)
		}
		got, err := dr.Eject(p)
		if err != nil || got != disc {
			t.Errorf("Eject = %v, %v", got, err)
		}
		if _, err := dr.Eject(p); !errors.Is(err, ErrNoDisc) {
			t.Errorf("eject empty: %v", err)
		}
		// Warm load (drive awake) skips spin-up.
		start = p.Now()
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("warm Load: %v", err)
		}
		if d := p.Now() - start; d > 2*time.Second {
			t.Errorf("warm load took %v, want < 2s", d)
		}
	})
}

func TestBurn25SpeedCurve(t *testing.T) {
	// Fig 8: single drive, 25 GB disc: ramp ~4.4X -> 12X, avg ~8.2X, ~675 s.
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	var rep BurnReport
	var samples []SpeedSample
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		var err error
		rep, err = dr.Burn(p, memSource(bytes.Repeat([]byte{7}, 1<<20)), BurnOptions{
			OnSample: func(s SpeedSample) { samples = append(samples, s) },
		})
		if err != nil {
			t.Fatalf("Burn: %v", err)
		}
	})
	if rep.AvgSpeedX < 7.9 || rep.AvgSpeedX > 8.5 {
		t.Errorf("avg speed = %.2fX, want ~8.2X", rep.AvgSpeedX)
	}
	if rep.Duration < 640*time.Second || rep.Duration > 720*time.Second {
		t.Errorf("duration = %v, want ~675s", rep.Duration)
	}
	if len(samples) < 100 {
		t.Fatalf("only %d samples", len(samples))
	}
	first, last := samples[0].SpeedX, samples[len(samples)-1].SpeedX
	if math.Abs(first-4.4) > 0.5 {
		t.Errorf("initial speed %.2fX, want ~4.4X", first)
	}
	if math.Abs(last-12.0) > 0.5 {
		t.Errorf("final speed %.2fX, want ~12X", last)
	}
	// Monotonically non-decreasing ramp.
	for i := 1; i < len(samples); i++ {
		if samples[i].SpeedX < samples[i-1].SpeedX-1e-9 {
			t.Fatalf("speed decreased at sample %d: %.3f -> %.3f", i, samples[i-1].SpeedX, samples[i].SpeedX)
		}
	}
}

func TestBurn100SpeedCurve(t *testing.T) {
	// Fig 10: 100 GB disc: ~6X with fail-safe dips to 4X, avg ~5.9X, ~3757 s.
	env := sim.NewEnv()
	env.Seed(7)
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media100)
	var rep BurnReport
	dips := 0
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		var err error
		rep, err = dr.Burn(p, nil, BurnOptions{
			OnSample: func(s SpeedSample) {
				if s.SpeedX < 5 {
					dips++
				}
			},
		})
		if err != nil {
			t.Fatalf("Burn: %v", err)
		}
	})
	if rep.AvgSpeedX < 5.7 || rep.AvgSpeedX > 6.01 {
		t.Errorf("avg speed = %.2fX, want ~5.9X", rep.AvgSpeedX)
	}
	if rep.Duration < 3600*time.Second || rep.Duration > 3950*time.Second {
		t.Errorf("duration = %v, want ~3757s", rep.Duration)
	}
	if dips == 0 {
		t.Error("no fail-safe dips observed")
	}
}

func TestBurnPayloadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	payload := bytes.Repeat([]byte{0xC3, 0x55}, 3<<19) // 3 MB
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		rep, err := dr.Burn(p, memSource(payload), BurnOptions{})
		if err != nil {
			t.Fatalf("Burn: %v", err)
		}
		if rep.PayloadBytes != int64(len(payload)) {
			t.Errorf("payload burned = %d, want %d", rep.PayloadBytes, len(payload))
		}
		got := make([]byte, len(payload))
		if err := dr.ReadAt(p, got, 0); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("burned payload mismatch")
		}
		// Beyond the payload, the disc reads zeros (sparse tail).
		tail := make([]byte, 100)
		tail[0] = 0xFF
		if err := dr.ReadAt(p, tail, int64(len(payload))+4096); err != nil {
			t.Fatalf("tail read: %v", err)
		}
		for _, b := range tail {
			if b != 0 {
				t.Fatal("sparse tail not zero")
			}
		}
	})
}

func TestWORMRejectsSecondBurn(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if _, err := dr.Burn(p, nil, BurnOptions{LogicalBytes: 1e9}); err != nil {
			t.Fatalf("first burn: %v", err)
		}
		if _, err := dr.Burn(p, nil, BurnOptions{LogicalBytes: 1e9}); !errors.Is(err, ErrWORMViolation) {
			t.Errorf("second burn without Append: %v", err)
		}
	})
}

func TestAppendBurnPseudoOverwrite(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if _, err := dr.Burn(p, memSource([]byte("track-one")), BurnOptions{LogicalBytes: 1e9}); err != nil {
			t.Fatalf("first burn: %v", err)
		}
		before := p.Now()
		if _, err := dr.Burn(p, memSource([]byte("track-two")), BurnOptions{LogicalBytes: 1e9, Append: true}); err != nil {
			t.Fatalf("append burn: %v", err)
		}
		if p.Now()-before < AppendFormatTime {
			t.Error("append burn skipped the metadata-format delay")
		}
		tracks := disc.Tracks()
		if len(tracks) != 2 {
			t.Fatalf("tracks = %d, want 2", len(tracks))
		}
		// Track 2 starts after track 1 plus the metadata zone: capacity loss.
		if tracks[1].Start < tracks[0].Start+tracks[0].Len+TrackMetaZone {
			t.Errorf("track 2 start %d does not account for metadata zone", tracks[1].Start)
		}
		// Both payloads readable at their track offsets.
		buf := make([]byte, 9)
		if err := dr.ReadAt(p, buf, tracks[1].Start); err != nil || string(buf) != "track-two" {
			t.Errorf("track 2 read: %q %v", buf, err)
		}
	})
}

func TestInterruptBurn(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		done := sim.NewCompletion[BurnReport](env)
		env.Go("burner", func(bp *sim.Proc) {
			rep, err := dr.Burn(bp, nil, BurnOptions{})
			if !errors.Is(err, ErrBurnAborted) {
				t.Errorf("interrupted burn error = %v", err)
			}
			done.Resolve(rep, nil)
		})
		p.Sleep(100 * time.Second)
		dr.InterruptBurn()
		rep, _ := done.Wait(p)
		if !rep.Interrupted {
			t.Error("report not marked interrupted")
		}
		if rep.Duration > 110*time.Second {
			t.Errorf("burn ran %v after interrupt at 100s", rep.Duration)
		}
		// Partial track exists; disc can be appended later.
		if disc.Blank() || len(disc.Tracks()) != 1 {
			t.Errorf("disc state after interrupt: blank=%v tracks=%d", disc.Blank(), len(disc.Tracks()))
		}
	})
}

func TestReadSpeedSingle(t *testing.T) {
	// Table 2: 25 GB single drive 24.1 MB/s; 100 GB 18.0 MB/s.
	for _, tc := range []struct {
		media MediaType
		rate  float64
	}{{Media25, 24.1e6}, {Media100, 18.0e6}} {
		env := sim.NewEnv()
		dr := NewDrive(env, "d0", nil)
		disc := NewDisc("d", tc.media)
		inSim(t, env, func(p *sim.Proc) {
			if err := dr.Load(p, disc); err != nil {
				t.Fatalf("Load: %v", err)
			}
			start := p.Now()
			buf := make([]byte, 1<<20)
			const total = 100 << 20
			for off := int64(0); off < total; off += int64(len(buf)) {
				if err := dr.ReadAt(p, buf, off); err != nil {
					t.Fatalf("ReadAt: %v", err)
				}
			}
			rate := float64(total) / (p.Now() - start).Seconds()
			if math.Abs(rate-tc.rate)/tc.rate > 0.02 {
				t.Errorf("%v read rate = %.1f MB/s, want %.1f", tc.media, rate/1e6, tc.rate/1e6)
			}
		})
	}
}

func TestAggregateReadTwelveDrives(t *testing.T) {
	// Table 2: 12 drives aggregate 282.5 MB/s (25 GB) and 210.2 MB/s (100 GB).
	for _, tc := range []struct {
		media MediaType
		want  float64
	}{{Media25, 282.5e6}, {Media100, 210.2e6}} {
		env := sim.NewEnv()
		sharer := NewSharer(env, 0)
		const perDrive = 50 << 20
		for i := 0; i < 12; i++ {
			dr := NewDrive(env, "d", sharer)
			disc := NewDisc("x", tc.media)
			env.Go("reader", func(p *sim.Proc) {
				if err := dr.Load(p, disc); err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				buf := make([]byte, 1<<20)
				for off := int64(0); off < perDrive; off += int64(len(buf)) {
					if err := dr.ReadAt(p, buf, off); err != nil {
						t.Errorf("ReadAt: %v", err)
						return
					}
				}
			})
		}
		env.Run()
		// Subtract the load time (~3.5s) from the window.
		elapsed := env.Now().Seconds() - 3.5
		agg := float64(12*perDrive) / elapsed
		if math.Abs(agg-tc.want)/tc.want > 0.04 {
			t.Errorf("%v aggregate = %.1f MB/s, want %.1f", tc.media, agg/1e6, tc.want/1e6)
		}
	}
}

func TestBurnCapThrottles(t *testing.T) {
	// With an aggregate cap well below demand, 12 concurrent burns are
	// stretched and per-drive speed is capped.
	env := sim.NewEnv()
	sharer := NewSharer(env, 100e6) // 100 MB/s aggregate
	var reports []BurnReport
	for i := 0; i < 4; i++ {
		dr := NewDrive(env, "d", sharer)
		disc := NewDisc("x", Media25)
		env.Go("burner", func(p *sim.Proc) {
			if err := dr.Load(p, disc); err != nil {
				t.Errorf("Load: %v", err)
				return
			}
			rep, err := dr.Burn(p, nil, BurnOptions{LogicalBytes: 5e9})
			if err != nil {
				t.Errorf("Burn: %v", err)
				return
			}
			reports = append(reports, rep)
		})
	}
	env.Run()
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	// 4 x 5 GB at <= 100 MB/s aggregate: at least 200 s.
	if env.Now() < 200*time.Second {
		t.Errorf("elapsed %v, want >= 200s under cap", env.Now())
	}
	for _, r := range reports {
		if r.AvgSpeedX > 100e6/4/BluRay1X*1.15 {
			t.Errorf("per-drive avg %.1fX exceeds fair share under cap", r.AvgSpeedX)
		}
	}
}

func TestDiscSectorError(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if _, err := dr.Burn(p, memSource(bytes.Repeat([]byte{1}, 8192)), BurnOptions{LogicalBytes: 1e9}); err != nil {
			t.Fatalf("Burn: %v", err)
		}
		disc.CorruptSector(2048)
		buf := make([]byte, 4096)
		if err := dr.ReadAt(p, buf, 0); !errors.Is(err, ErrBadSector) {
			t.Errorf("read over bad sector: %v", err)
		}
		// Other regions still readable.
		if err := dr.ReadAt(p, buf, 4096); err != nil {
			t.Errorf("read of good sectors: %v", err)
		}
	})
}

func TestDriveBackendWORM(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		b := ImageView{Drive: dr}
		if err := b.WriteAt(p, []byte("x"), 0); !errors.Is(err, ErrReadOnlyPath) {
			t.Errorf("backend write: %v", err)
		}
		if b.Size() != disc.Capacity() {
			t.Errorf("backend size = %d", b.Size())
		}
	})
}

func TestBurnFromRAIDBufferChargesBufferTime(t *testing.T) {
	// Stream-interference check: burning from a disk charges that disk.
	env := sim.NewEnv()
	disk := blockdev.New(env, 1<<30, blockdev.HDDProfile())
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		payload := bytes.Repeat([]byte{9}, 4<<20)
		if err := disk.WriteAt(p, payload, 0); err != nil {
			t.Fatalf("seed buffer: %v", err)
		}
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		src := diskSource{d: disk, n: int64(len(payload))}
		if _, err := dr.Burn(p, src, BurnOptions{LogicalBytes: 1e9}); err != nil {
			t.Fatalf("Burn: %v", err)
		}
		if disk.BytesRead < int64(len(payload)) {
			t.Errorf("buffer read %d bytes, want >= %d", disk.BytesRead, len(payload))
		}
	})
}

type diskSource struct {
	d *blockdev.Disk
	n int64
}

func (s diskSource) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	return s.d.Lend(p, off, n, dst)
}
func (s diskSource) Size() int64 { return s.n }

func TestDiscFullOnOversizedBurn(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	disc := NewDisc("disc0", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, disc); err != nil {
			t.Fatalf("Load: %v", err)
		}
		_, err := dr.Burn(p, nil, BurnOptions{LogicalBytes: 30e9})
		if !errors.Is(err, ErrDiscFull) {
			t.Errorf("oversized burn: %v", err)
		}
	})
}

// TestReadSurvivesEjectDuringSpinUp: the arm ejects without taking the
// drive's busy lock, so a tray swap can land while a reader sleeps through
// the lazy spin-up of an arm-loaded disc. The read must come back with the
// typed no-disc error the mount layer retries on; it used to dereference the
// vanished disc on the reader's process.
func TestReadSurvivesEjectDuringSpinUp(t *testing.T) {
	env := sim.NewEnv()
	dr := NewDrive(env, "d0", nil)
	if err := dr.ArmLoad(NewDisc("disc0", Media25)); err != nil {
		t.Fatalf("ArmLoad: %v", err)
	}
	env.Go("arm", func(p *sim.Proc) {
		p.Sleep(SpinUpTime / 2)
		if _, err := dr.ArmEject(); err != nil {
			t.Errorf("ArmEject: %v", err)
		}
	})
	inSim(t, env, func(p *sim.Proc) {
		err := dr.ReadAt(p, make([]byte, SectorSize), 0)
		if !errors.Is(err, ErrNoDisc) {
			t.Fatalf("ReadAt across an eject = %v, want ErrNoDisc", err)
		}
		if p.Now() != SpinUpTime {
			t.Errorf("read returned at %v, want right after the %v spin-up", p.Now(), SpinUpTime)
		}
	})
	if dr.State() != StateEmpty {
		t.Errorf("drive state = %v after the eject, want %v", dr.State(), StateEmpty)
	}
}

// TestBurnKeepsImageTailByReference: an image whose length is not a
// multiple of a chunk burns without a private chunk for its last partial
// chunk; the disc keeps that piece by reference too, reads it zero-extended,
// and a flip in it copies one chunk without reaching the source.
func TestBurnKeepsImageTailByReference(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dr := NewDrive(env, "d0", nil)
	const payload = 1<<20 + 3000
	pristine := patterned(payload, 9)
	src := memSource(append([]byte(nil), pristine...))
	d := NewDisc("tail", Media25)
	inSim(t, env, func(p *sim.Proc) {
		if err := dr.Load(p, d); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if _, err := dr.Burn(p, src, BurnOptions{}); err != nil {
			t.Fatalf("Burn: %v", err)
		}
		if got, want := d.store.Bytes(), int64(payload/chunk.Size*chunk.Size); got != want {
			t.Errorf("disc holds %d bytes of chunks after burning %d, want %d (the whole chunks only)", got, payload, want)
		}
		got := make([]byte, payload+5000)
		if err := d.readAt(got, 0); err != nil || !bytes.Equal(got, append(append([]byte(nil), pristine...), make([]byte, 5000)...)) {
			t.Fatalf("the burned image does not read as its source zero-extended (err=%v)", err)
		}
		d.FlipByte(payload - 1)
		if err := d.readAt(got[:1], payload-1); err != nil || got[0] != ^pristine[payload-1] {
			t.Errorf("flipped tail byte reads %#x (err=%v), want %#x", got[0], err, ^pristine[payload-1])
		}
		if got, want := d.store.Bytes(), int64(payload/chunk.Size+1)*chunk.Size; got != want {
			t.Errorf("disc holds %d bytes of chunks after a flip in the tail, want %d", got, want)
		}
		if !bytes.Equal(src, pristine) {
			t.Error("a flip on the disc reached the burn source's bytes")
		}
	})
}

// TestDiscAdoptsBurnPayload: a disc keeps the chunks its burn source lends,
// so burning whole chunks allocates next to nothing, while a burn in quanta
// smaller than a chunk copies them in. Reads find the payload across quantum
// borders and past its end, flipped bytes included, and a flip never reaches
// the source's bytes.
func TestDiscAdoptsBurnPayload(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dr := NewDrive(env, "d0", nil)
	check := func(p *sim.Proc, what string, want []byte, off int64) {
		t.Helper()
		got := make([]byte, len(want))
		if err := dr.ReadAt(p, got, off); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read of %d bytes at %d differs (err=%v)", what, len(want), off, err)
		}
	}
	inSim(t, env, func(p *sim.Proc) {
		for _, payload := range []int{1 << 20, 6 << 20} {
			pristine := patterned(payload, byte(payload>>20))
			src := memSource(append([]byte(nil), pristine...))
			// Write-all-once: the payload sits in the first quantum (1/burnChunks
			// of 25 GB), lent whole chunk by whole chunk.
			whole := NewDisc(fmt.Sprintf("whole-%d", payload), Media25)
			if err := dr.Load(p, whole); err != nil {
				t.Fatalf("Load: %v", err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := dr.Burn(p, src, BurnOptions{}); err != nil {
				t.Fatalf("Burn: %v", err)
			}
			runtime.ReadMemStats(&m1)
			if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(chunk.Size); got > limit {
				t.Errorf("burning %d bytes allocated %d, want <= %d", payload, got, limit)
			}
			check(p, "whole image", src, 0)
			if _, err := dr.Eject(p); err != nil {
				t.Fatalf("Eject: %v", err)
			}

			// A short image burns in burnChunks quanta, each a few KB.
			d := NewDisc(fmt.Sprintf("quanta-%d", payload), Media25)
			if err := dr.Load(p, d); err != nil {
				t.Fatalf("Load: %v", err)
			}
			logical := int64(payload) + 1<<20
			if _, err := dr.Burn(p, src, BurnOptions{LogicalBytes: logical}); err != nil {
				t.Fatalf("Burn: %v", err)
			}
			check(p, "across every quantum border", src, 0)
			border := 3 * (logical / burnChunks)
			check(p, "across one quantum border", src[border-100:border+100], border-100)
			check(p, "from inside the payload into the zeros past it",
				append(append([]byte(nil), src[payload-1000:]...), make([]byte, 5000)...), int64(payload-1000))
			check(p, "zeros past the payload", make([]byte, 4096), int64(payload)+8192)

			// A flip of a stored byte or of one never stored reads back flipped,
			// on this disc only.
			want := append(append([]byte(nil), src...), make([]byte, 4096)...)
			for _, off := range []int{0, int(border), payload - 1, payload + 100, payload + 100, payload + 7} {
				d.FlipByte(int64(off))
				want[off] ^= 0xFF
			}
			check(p, "after FlipByte", want, 0)
			if _, err := dr.Eject(p); err != nil {
				t.Fatalf("Eject: %v", err)
			}
			// The whole-image disc holds src's own chunks: a flip copies one.
			whole.FlipByte(chunk.Size + 1)
			got := make([]byte, 1)
			if err := whole.readAt(got, chunk.Size+1); err != nil || got[0] != ^src[chunk.Size+1] {
				t.Errorf("flipped byte reads %#x (err=%v), want %#x", got[0], err, ^src[chunk.Size+1])
			}
			if !bytes.Equal(src, pristine) {
				t.Fatal("a flip on a disc reached the burn source's bytes")
			}
		}

		// A byte flipped on a blank disc is burned over.
		blank := NewDisc("blank", Media25)
		if err := dr.Load(p, blank); err != nil {
			t.Fatalf("Load: %v", err)
		}
		blank.FlipByte(500)
		blank.FlipByte(3 << 20)
		first := memSource(patterned(1<<20, 3))
		if _, err := dr.Burn(p, first, BurnOptions{LogicalBytes: 2 << 20}); err != nil {
			t.Fatalf("Burn: %v", err)
		}
		check(p, "burn over a flipped blank", append(append([]byte(nil), first...), make([]byte, 3<<20)...), 0)
	})
}
