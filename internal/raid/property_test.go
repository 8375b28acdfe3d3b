package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// Property sweep for the erasure code: every combination of device loss and
// sector corruption up to the level's correction bound must decode
// byte-for-byte, and every combination beyond the bound must be detected
// (ErrTooManyFailed), never silently mis-decoded.

// faultMode is one way a device can go bad mid-life.
type faultMode int

const (
	modeFail    faultMode = iota // whole-device loss (controller death)
	modeCorrupt                  // sector corruption (read error on stripe 0)
)

func (m faultMode) String() string {
	if m == modeFail {
		return "fail"
	}
	return "corrupt"
}

// sweepCase damages the given devices and checks the decode property.
type sweepCase struct {
	level Level
	n     int
	devs  []int       // devices to damage
	modes []faultMode // parallel to devs
}

func (c sweepCase) name() string {
	s := fmt.Sprintf("%s-%ddevs", c.level, c.n)
	for i, d := range c.devs {
		s += fmt.Sprintf("-%s%d", c.modes[i], d)
	}
	return s
}

// runSweepCase writes a multi-rotation pattern, applies the damage, and
// verifies decode round-trips (within bound) or fails detected (beyond).
func runSweepCase(t *testing.T, c sweepCase, withinBound bool) {
	t.Helper()
	const su = 4 << 10
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	a, disks := newArray(t, env, c.level, c.n, 256<<10, su)
	// Enough rotations that every device serves data and parity roles, plus
	// a partial trailing stripe to cover the short-read path.
	data := patterned(su*c.n*6+su/2, byte(c.n))
	inSim(t, env, func(p *sim.Proc) {
		if err := a.WriteAt(p, data, 0); err != nil {
			t.Fatalf("%s: write: %v", c.name(), err)
		}
		for i, d := range c.devs {
			switch c.modes[i] {
			case modeFail:
				disks[d].Fail()
			case modeCorrupt:
				// Stripe 0 lives at device offset 0 on every device, so
				// corrupting sector 0 on k devices injects k losses into the
				// same stripe.
				disks[d].CorruptSector(0)
			}
		}
		got := make([]byte, len(data))
		err := a.ReadAt(p, got, 0)
		if withinBound {
			if err != nil {
				t.Fatalf("%s: decode within bound failed: %v", c.name(), err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: decode within bound returned wrong data", c.name())
			}
			return
		}
		if err == nil {
			if bytes.Equal(got, data) {
				t.Fatalf("%s: beyond-bound read silently succeeded with correct data (losses not observed?)", c.name())
			}
			t.Fatalf("%s: beyond-bound corruption MIS-DECODED: no error, wrong data", c.name())
		}
		if !errors.Is(err, ErrTooManyFailed) {
			t.Fatalf("%s: beyond-bound error = %v, want ErrTooManyFailed", c.name(), err)
		}
	})
}

// modeCombos enumerates all damage-mode assignments for k devices.
func modeCombos(k int) [][]faultMode {
	if k == 0 {
		return [][]faultMode{{}}
	}
	var out [][]faultMode
	for _, rest := range modeCombos(k - 1) {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			out = append(out, append(append([]faultMode{}, rest...), m))
		}
	}
	return out
}

func TestRAID5SweepWithinBound(t *testing.T) {
	const n = 5
	for d := 0; d < n; d++ {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			c := sweepCase{level: RAID5, n: n, devs: []int{d}, modes: []faultMode{m}}
			t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
		}
	}
}

func TestRAID5SweepBeyondBound(t *testing.T) {
	const n = 5
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, modes := range modeCombos(2) {
				c := sweepCase{level: RAID5, n: n, devs: []int{i, j}, modes: modes}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, false) })
			}
		}
	}
}

func TestRAID6SweepWithinBound(t *testing.T) {
	const n = 6
	// Single losses.
	for d := 0; d < n; d++ {
		for _, m := range []faultMode{modeFail, modeCorrupt} {
			c := sweepCase{level: RAID6, n: n, devs: []int{d}, modes: []faultMode{m}}
			t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
		}
	}
	// Every pair, every fail/corrupt combination: the two-loss P+Q solve.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, modes := range modeCombos(2) {
				c := sweepCase{level: RAID6, n: n, devs: []int{i, j}, modes: modes}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, true) })
			}
		}
	}
}

func TestRAID6SweepBeyondBound(t *testing.T) {
	const n = 6
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				c := sweepCase{
					level: RAID6, n: n,
					devs:  []int{i, j, k},
					modes: []faultMode{modeFail, modeCorrupt, modeFail},
				}
				t.Run(c.name(), func(t *testing.T) { runSweepCase(t, c, false) })
			}
		}
	}
}

// TestPropertyWriteFromMatchesWriteAt feeds random writes, with partial head
// and tail stripes, through WriteFrom from a chunk store on one array and
// through WriteAt on a twin. After every write the two must agree on the
// virtual time and on every member's ops and bytes; at the end the members
// must hold the same bytes, although the source store was overwritten while
// each WriteFrom was in flight and again after it. Then one member of the
// WriteFrom array fails: degraded reads, a rebuild and a scrub must go as on
// any array.
func TestPropertyWriteFromMatchesWriteAt(t *testing.T) {
	for _, tc := range []struct {
		level Level
		n, su int
	}{
		// A column is one chunk (kept by reference), part of one (copied), or
		// two chunks (two pieces).
		{RAID5, 5, chunk.Size}, {RAID5, 5, chunk.Size / 4}, {RAID5, 4, 2 * chunk.Size},
		{RAID6, 6, chunk.Size},
	} {
		t.Run(fmt.Sprintf("%s/su=%dK", tc.level, tc.su>>10), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runWriteFromTwins(t, tc.level, tc.n, tc.su, seed)
			}
		})
	}
}

func runWriteFromTwins(t *testing.T, level Level, n, su int, seed int64) {
	t.Helper()
	const stripes = 6
	type twin struct {
		env   *sim.Env
		a     *Array
		disks []*blockdev.Disk
		trace []string // virtual time and member traffic after each write
		mem   [][]byte // member contents at the end
	}
	var tw [2]*twin
	for i := range tw {
		env := sim.NewEnv()
		t.Cleanup(env.Close)
		a, disks := newArray(t, env, level, n, int64(stripes*su), su)
		tw[i] = &twin{env: env, a: a, disks: disks}
	}
	size := tw[0].a.Size()
	stripeBytes := int64(su * tw[0].a.dataPerStripe())
	type write struct {
		off  int64
		data []byte
		zero bool // an all-zero write from a fresh store: every piece lent is the zero chunk
	}
	rng := rand.New(rand.NewSource(seed))
	ref := make([]byte, size)
	writes := make([]write, 24)
	for i := range writes {
		off := rng.Int63n(size)
		if rng.Intn(2) == 0 {
			off -= off % int64(su)
		}
		l := 1 + rng.Int63n(min(2*stripeBytes, size-off))
		if rng.Intn(2) == 0 {
			l = min((l+int64(su)-1)/int64(su)*int64(su), size-off)
		}
		w := write{off: off, data: make([]byte, l), zero: rng.Intn(4) == 0}
		if !w.zero {
			rng.Read(w.data)
		}
		copy(ref[off:], w.data)
		writes[i] = w
	}
	for i, tw := range tw {
		fromStore := i == 0
		inSim(t, tw.env, func(p *sim.Proc) {
			// src is the source store and srcRef what it must hold. A scribbler
			// overwrites the first half of each write's range as soon as the
			// write first yields (on both twins alike); the other half stays
			// lent, and nothing the array does may write into it.
			var src chunk.Store
			srcRef := make([]byte, size)
			for _, w := range writes {
				if w.zero {
					src = chunk.Store{}
					clear(srcRef)
				}
				src.WriteAt(w.data, w.off)
				copy(srcRef[w.off:], w.data)
				junk := bytes.Repeat([]byte{0xEE}, len(w.data)/2)
				tw.env.Go("scribble", func(*sim.Proc) {
					src.WriteAt(junk, w.off)
					copy(srcRef[w.off:], junk)
				})
				var err error
				if fromStore {
					err = tw.a.WriteFrom(p, &src, w.off, int64(len(w.data)))
				} else {
					err = tw.a.WriteAt(p, w.data, w.off)
				}
				if err != nil {
					t.Fatalf("seed %d: write(off=%d len=%d): %v", seed, w.off, len(w.data), err)
				}
				line := fmt.Sprint(p.Now())
				for _, d := range tw.disks {
					line += fmt.Sprintf(" %d/%d/%d", d.Ops, d.BytesRead, d.BytesWritten)
				}
				tw.trace = append(tw.trace, line)
			}
			got := make([]byte, size)
			if src.ReadAt(got, 0); !bytes.Equal(got, srcRef) {
				t.Fatalf("seed %d: the source store changed under the chunks it lent", seed)
			}
			for _, d := range tw.disks {
				b := make([]byte, d.Size())
				if err := d.ReadAt(p, b, 0); err != nil {
					t.Fatalf("seed %d: member ReadAt: %v", seed, err)
				}
				tw.mem = append(tw.mem, b)
			}
		})
	}
	for i := range tw[0].trace {
		if tw[0].trace[i] != tw[1].trace[i] {
			t.Fatalf("seed %d, write %d (off=%d len=%d): WriteFrom left %q, WriteAt %q",
				seed, i, writes[i].off, len(writes[i].data), tw[0].trace[i], tw[1].trace[i])
		}
	}
	for m := range tw[0].mem {
		if !bytes.Equal(tw[0].mem[m], tw[1].mem[m]) {
			t.Fatalf("seed %d: member %d differs between the WriteFrom and WriteAt arrays", seed, m)
		}
	}
	a, disks := tw[0].a, tw[0].disks
	victim := rng.Intn(n)
	inSim(t, tw[0].env, func(p *sim.Proc) {
		got := make([]byte, size)
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: content differs from the reference (err=%v)", seed, err)
		}
		disks[victim].Fail()
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: degraded content differs from the reference (err=%v)", seed, err)
		}
		if err := a.Rebuild(p, victim, blockdev.New(tw[0].env, disks[victim].Size(), blockdev.SSDProfile())); err != nil {
			t.Fatalf("seed %d: Rebuild: %v", seed, err)
		}
		if res, err := a.Scrub(p); err != nil || len(res.Mismatches) != 0 {
			t.Fatalf("seed %d: Scrub: err=%v, bad stripes %v", seed, err, res.Mismatches)
		}
		if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: content differs from the reference after rebuild (err=%v)", seed, err)
		}
	})
}

// TestPropertyPartialWriteDegraded runs both partial-stripe plans on every
// rotation of a degraded array, with the lost member holding the stripe's
// parity, a data column the write touches, or one it does not: the write must
// store everything but the lost member's part and report exactly that member's
// error, so that the array reads back as the reference does, degraded, and
// rebuilds to clean parity. The "unreadable" cases make the read-modify-write
// reads fail on a latent sector error instead, which a write does not report.
func TestPropertyPartialWriteDegraded(t *testing.T) {
	const (
		su = 4096
		// Both arrays have four data columns. The narrow write sits in column 1
		// (read-modify-write); the wide one runs from column 0 into column 2
		// (reconstruct-write) and leaves column 3 alone.
		touchedCol, untouchedCol = 1, 3
	)
	plans := []struct {
		name     string
		off, len int
	}{
		{"rmw", su + 100, 1000},
		{"rcw", 100, 3*su - 300},
	}
	for _, lv := range []struct {
		level Level
		n     int
		roles []string
	}{
		{RAID5, 5, []string{"P", "touched", "untouched", "unreadable"}},
		{RAID6, 6, []string{"P", "Q", "touched", "untouched", "unreadable"}},
	} {
		for _, role := range lv.roles {
			for _, plan := range plans {
				t.Run(fmt.Sprintf("%s/%s/%s", lv.level, role, plan.name), func(t *testing.T) {
					for stripe := 0; stripe < lv.n; stripe++ {
						env := sim.NewEnv()
						a, disks := newArray(t, env, lv.level, lv.n, int64(lv.n*su), su)
						ref := patterned(int(a.Size()), byte(stripe))
						victim := map[string]int{
							"P": a.pDev(int64(stripe)), "Q": a.qDev(int64(stripe)),
							"touched":    a.dataDev(int64(stripe), touchedCol),
							"unreadable": a.dataDev(int64(stripe), touchedCol),
							"untouched":  a.dataDev(int64(stripe), untouchedCol),
						}[role]
						inSim(t, env, func(p *sim.Proc) {
							if err := a.WriteAt(p, ref, 0); err != nil {
								t.Fatalf("fill: %v", err)
							}
							lse := int64(stripe*su + su/2) // inside both writes' span of column 1
							if role == "unreadable" {
								disks[victim].CorruptSector(lse)
							} else {
								disks[victim].Fail()
							}
							off := stripe*su*a.dataPerStripe() + plan.off
							data := patterned(plan.len, 0xA5)
							err := a.WriteAt(p, data, int64(off))
							copy(ref[off:], data)
							// Only a write to the lost member fails: parity and the
							// touched column are written, the untouched one is not.
							if role == "P" || role == "Q" || role == "touched" {
								if !errors.Is(err, blockdev.ErrFailed) {
									t.Fatalf("stripe %d: WriteAt = %v, want the failed member's error", stripe, err)
								}
							} else if err != nil {
								t.Fatalf("stripe %d: WriteAt: %v", stripe, err)
							}
							got := make([]byte, len(ref))
							if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
								t.Fatalf("stripe %d: degraded content differs from the reference (err=%v)", stripe, err)
							}
							if role == "unreadable" {
								disks[victim].HealSector(lse)
							} else if err := a.Rebuild(p, victim, blockdev.New(env, disks[victim].Size(), blockdev.SSDProfile())); err != nil {
								t.Fatalf("stripe %d: Rebuild: %v", stripe, err)
							}
							if res, err := a.Scrub(p); err != nil || len(res.Mismatches) != 0 {
								t.Fatalf("stripe %d: Scrub: err=%v, bad stripes %v", stripe, err, res.Mismatches)
							}
							if err := a.ReadAt(p, got, 0); err != nil || !bytes.Equal(got, ref) {
								t.Fatalf("stripe %d: content differs from the reference after rebuild (err=%v)", stripe, err)
							}
						})
						env.Close()
					}
				})
			}
		}
	}
}
