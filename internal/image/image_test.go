package image

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"encoding/json"

	"ros/internal/blockdev"
	"ros/internal/rack"
	"ros/internal/sim"
)

func TestIDRoundTrip(t *testing.T) {
	id := NewID(42)
	parsed, err := Parse(id.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed != id {
		t.Errorf("parsed %v != %v", parsed, id)
	}
	if id.IsZero() {
		t.Error("NewID returned zero")
	}
	if (ID{}).IsZero() == false {
		t.Error("zero ID not IsZero")
	}
	if _, err := Parse("nothex"); err == nil {
		t.Error("Parse accepted garbage")
	}
	if NewID(1) == NewID(2) {
		t.Error("sequential IDs collide")
	}
}

func TestCatalogStateTransitions(t *testing.T) {
	c := NewCatalog()
	id := rack.TrayID{Roller: 0, Layer: 5, Slot: 2}
	if c.DAState(id) != DAEmpty {
		t.Error("initial state not Empty")
	}
	c.SetDAState(id, DAUsed)
	if c.DAState(id) != DAUsed {
		t.Error("state not Used")
	}
	c.SetDAState(id, DAFailed)
	if c.DAState(id) != DAFailed {
		t.Error("state not Failed")
	}
	addr := DiscAddr{Tray: id, Pos: 7}
	img := NewID(1)
	c.Place(img, addr)
	got, ok := c.Locate(img)
	if !ok || got != addr {
		t.Errorf("Locate = %v %v", got, ok)
	}
	if _, ok := c.Locate(NewID(99)); ok {
		t.Error("Locate found unplaced image")
	}
}

func TestCatalogSerialization(t *testing.T) {
	c := NewCatalog()
	c.SetDAState(rack.TrayID{Layer: 1}, DAUsed)
	c.Place(NewID(3), DiscAddr{Tray: rack.TrayID{Layer: 1}, Pos: 3})
	b, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	c2, err := UnmarshalCatalog(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if c2.DAState(rack.TrayID{Layer: 1}) != DAUsed {
		t.Error("DA state lost")
	}
	if _, ok := c2.Locate(NewID(3)); !ok {
		t.Error("DIL entry lost")
	}
}

func TestFindEmptyTrayTopDown(t *testing.T) {
	env := sim.NewEnv()
	lib, err := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 1, Media: 0, PopulateAll: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	id, ok := c.FindEmptyTray(lib)
	if !ok {
		t.Fatal("no empty tray in a fully populated library")
	}
	if id.Layer != rack.LayersPerRoller-1 || id.Slot != 0 {
		t.Errorf("first empty tray = %v, want top layer slot 0", id)
	}
	c.SetDAState(id, DAUsed)
	id2, ok := c.FindEmptyTray(lib)
	if !ok || id2 == id {
		t.Errorf("second tray = %v, %v", id2, ok)
	}
}

// mem creates an SSD-backed byte store of n bytes.
func mem(env *sim.Env, n int64) *blockdev.Disk {
	return blockdev.New(env, n, blockdev.SSDProfile())
}

func fill(t *testing.T, env *sim.Env, d *blockdev.Disk, data []byte) {
	t.Helper()
	env.Go("fill", func(p *sim.Proc) {
		if err := d.WriteAt(p, data, 0); err != nil {
			t.Errorf("fill: %v", err)
		}
	})
	env.Run()
}

func TestGenerateAndVerifyParityRAID5(t *testing.T) {
	env := sim.NewEnv()
	const size = 300000
	k := 4
	data := make([]Backend, k)
	var payloads [][]byte
	for i := 0; i < k; i++ {
		d := mem(env, size)
		payload := bytes.Repeat([]byte{byte(i*37 + 1)}, size)
		fill(t, env, d, payload)
		data[i] = d
		payloads = append(payloads, payload)
	}
	pty := mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := GenerateParity(p, data, []Backend{pty}, size); err != nil {
			t.Errorf("GenerateParity: %v", err)
			return
		}
		bad, err := VerifyParity(p, data, []Backend{pty}, size)
		if err != nil || len(bad) != 0 {
			t.Errorf("VerifyParity: bad=%v err=%v", bad, err)
		}
	})
	env.Run()
}

func TestVerifyDetectsCorruption(t *testing.T) {
	env := sim.NewEnv()
	const size = 100000
	data := []Backend{mem(env, size), mem(env, size), mem(env, size)}
	pty := mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		for i, d := range data {
			if err := d.WriteAt(p, bytes.Repeat([]byte{byte(i + 1)}, size), 0); err != nil {
				t.Fatalf("seed: %v", err)
			}
		}
		if err := GenerateParity(p, data, []Backend{pty}, size); err != nil {
			t.Fatalf("GenerateParity: %v", err)
		}
		// Corrupt one data image silently.
		if err := data[1].WriteAt(p, []byte{0xFF}, 50000); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		bad, err := VerifyParity(p, data, []Backend{pty}, size)
		if err != nil {
			t.Fatalf("VerifyParity: %v", err)
		}
		if len(bad) == 0 {
			t.Error("corruption not detected")
		}
	})
	env.Run()
}

func TestRecoverSingleWithP(t *testing.T) {
	env := sim.NewEnv()
	const size = 200000
	k := 5
	data := make([]Backend, k)
	payloads := make([][]byte, k)
	for i := 0; i < k; i++ {
		d := mem(env, size)
		payloads[i] = make([]byte, size)
		for j := range payloads[i] {
			payloads[i][j] = byte(j*7 + i*13)
		}
		fill(t, env, d, payloads[i])
		data[i] = d
	}
	pty := mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := GenerateParity(p, data, []Backend{pty}, size); err != nil {
			t.Fatalf("GenerateParity: %v", err)
		}
		// Lose column 2.
		lost := 2
		dcopy := append([]Backend(nil), data...)
		dcopy[lost] = nil
		out := make([]Backend, k)
		rec := mem(env, size)
		out[lost] = rec
		if err := Recover(p, dcopy, []Backend{pty}, out, size); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		got := make([]byte, size)
		if err := rec.ReadAt(p, got, 0); err != nil {
			t.Fatalf("read recovered: %v", err)
		}
		if !bytes.Equal(got, payloads[lost]) {
			t.Error("recovered image mismatch")
		}
	})
	env.Run()
}

func TestRecoverDoubleWithPQ(t *testing.T) {
	env := sim.NewEnv()
	const size = 150000
	k := 10 // the paper's RAID-6 layout: 10 data + 2 parity
	data := make([]Backend, k)
	payloads := make([][]byte, k)
	for i := 0; i < k; i++ {
		d := mem(env, size)
		payloads[i] = make([]byte, size)
		for j := range payloads[i] {
			payloads[i][j] = byte(j*3 + i*29 + 1)
		}
		fill(t, env, d, payloads[i])
		data[i] = d
	}
	pP, pQ := mem(env, size), mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := GenerateParity(p, data, []Backend{pP, pQ}, size); err != nil {
			t.Fatalf("GenerateParity: %v", err)
		}
		for _, pair := range [][2]int{{0, 9}, {3, 4}, {1, 8}} {
			dcopy := append([]Backend(nil), data...)
			dcopy[pair[0]], dcopy[pair[1]] = nil, nil
			out := make([]Backend, k)
			r0, r1 := mem(env, size), mem(env, size)
			out[pair[0]], out[pair[1]] = r0, r1
			if err := Recover(p, dcopy, []Backend{pP, pQ}, out, size); err != nil {
				t.Fatalf("Recover(%v): %v", pair, err)
			}
			for i, rec := range []*blockdev.Disk{r0, r1} {
				got := make([]byte, size)
				if err := rec.ReadAt(p, got, 0); err != nil {
					t.Fatalf("read recovered: %v", err)
				}
				if !bytes.Equal(got, payloads[pair[i]]) {
					t.Errorf("pair %v col %d mismatch", pair, pair[i])
				}
			}
		}
	})
	env.Run()
}

func TestRecoverSingleWithQOnly(t *testing.T) {
	env := sim.NewEnv()
	const size = 80000
	k := 4
	data := make([]Backend, k)
	payloads := make([][]byte, k)
	for i := 0; i < k; i++ {
		d := mem(env, size)
		payloads[i] = bytes.Repeat([]byte{byte(i + 11)}, size)
		fill(t, env, d, payloads[i])
		data[i] = d
	}
	pP, pQ := mem(env, size), mem(env, size)
	env.Go("t", func(p *sim.Proc) {
		if err := GenerateParity(p, data, []Backend{pP, pQ}, size); err != nil {
			t.Fatalf("GenerateParity: %v", err)
		}
		// P lost AND data column 1 lost: recover via Q.
		lost := 1
		dcopy := append([]Backend(nil), data...)
		dcopy[lost] = nil
		out := make([]Backend, k)
		rec := mem(env, size)
		out[lost] = rec
		if err := Recover(p, dcopy, []Backend{nil, pQ}, out, size); err != nil {
			t.Fatalf("Recover via Q: %v", err)
		}
		got := make([]byte, size)
		if err := rec.ReadAt(p, got, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payloads[lost]) {
			t.Error("Q-path recovery mismatch")
		}
	})
	env.Run()
}

func TestRecoverTooManyLost(t *testing.T) {
	env := sim.NewEnv()
	const size = 1000
	data := []Backend{nil, nil, nil, mem(env, size)}
	env.Go("t", func(p *sim.Proc) {
		err := Recover(p, data, []Backend{mem(env, size), mem(env, size)}, make([]Backend, 4), size)
		if !errors.Is(err, ErrTooManyLost) {
			t.Errorf("3 lost: %v", err)
		}
	})
	env.Run()
}

func TestParityCountValidation(t *testing.T) {
	env := sim.NewEnv()
	env.Go("t", func(p *sim.Proc) {
		if err := GenerateParity(p, []Backend{mem(env, 10)}, nil, 10); !errors.Is(err, ErrParityCount) {
			t.Errorf("no parity: %v", err)
		}
	})
	env.Run()
}

// Property: for random payloads, parity generation + any single-column loss
// + recovery reproduces the original bytes exactly.
func TestPropertyParityRecovery(t *testing.T) {
	f := func(seedA, seedB, seedC byte, lostCol uint8) bool {
		env := sim.NewEnv()
		const size = 8192
		seeds := []byte{seedA, seedB, seedC}
		data := make([]Backend, 3)
		payloads := make([][]byte, 3)
		for i := range data {
			d := mem(env, size)
			payloads[i] = make([]byte, size)
			for j := range payloads[i] {
				payloads[i][j] = byte(j)*seeds[i] + seeds[i]
			}
			data[i] = d
		}
		lost := int(lostCol) % 3
		ok := true
		env.Go("t", func(p *sim.Proc) {
			for i, d := range data {
				if err := d.WriteAt(p, payloads[i], 0); err != nil {
					ok = false
					return
				}
			}
			pty := mem(env, size)
			if err := GenerateParity(p, data, []Backend{pty}, size); err != nil {
				ok = false
				return
			}
			dcopy := append([]Backend(nil), data...)
			dcopy[lost] = nil
			out := make([]Backend, 3)
			rec := mem(env, size)
			out[lost] = rec
			if err := Recover(p, dcopy, []Backend{pty}, out, size); err != nil {
				ok = false
				return
			}
			got := make([]byte, size)
			if err := rec.ReadAt(p, got, 0); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, payloads[lost])
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFindEmptyTrayExhaustion(t *testing.T) {
	env := sim.NewEnv()
	lib, err := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 1, PopulateAll: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	for l := 0; l < rack.LayersPerRoller; l++ {
		for s := 0; s < rack.SlotsPerLayer; s++ {
			c.SetDAState(rack.TrayID{Roller: 0, Layer: l, Slot: s}, DAUsed)
		}
	}
	if _, ok := c.FindEmptyTray(lib); ok {
		t.Fatal("found an empty tray in a fully-used roller")
	}
}

func TestIDJSONMapKey(t *testing.T) {
	// IDs must survive use as JSON map keys (the DIL serialization).
	in := map[ID]int{NewID(5): 7}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out map[ID]int
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out[NewID(5)] != 7 {
		t.Errorf("round trip: %v", out)
	}
}

func TestImagesOnTray(t *testing.T) {
	c := NewCatalog()
	tray := rack.TrayID{Roller: 0, Layer: 3, Slot: 1}
	other := rack.TrayID{Roller: 0, Layer: 4, Slot: 2}
	c.Place(NewID(1), DiscAddr{Tray: tray, Pos: 0})
	c.Place(NewID(2), DiscAddr{Tray: tray, Pos: 1})
	c.Place(NewID(3), DiscAddr{Tray: other, Pos: 0})
	on := c.ImagesOnTray(tray)
	if len(on) != 2 || on[0] != NewID(1) || on[1] != NewID(2) {
		t.Errorf("ImagesOnTray = %v", on)
	}
	c.Forget(NewID(2))
	if len(c.ImagesOnTray(tray)) != 1 {
		t.Error("Forget did not remove the entry")
	}
}

// TestUsedTraysOrder checks that UsedTrays lists only Used trays, in
// (roller, layer descending, slot) order.
func TestUsedTraysOrder(t *testing.T) {
	c := NewCatalog()
	want := []rack.TrayID{
		{Roller: 0, Layer: 84, Slot: 0},
		{Roller: 0, Layer: 84, Slot: 5},
		{Roller: 0, Layer: 9, Slot: 1},
		{Roller: 1, Layer: 70, Slot: 0},
		{Roller: 1, Layer: 3, Slot: 2},
	}
	for _, i := range []int{3, 1, 4, 0, 2} {
		c.SetDAState(want[i], DAUsed)
	}
	c.SetDAState(rack.TrayID{Roller: 0, Layer: 50, Slot: 0}, DAFailed)
	c.SetDAState(rack.TrayID{Roller: 0, Layer: 40, Slot: 0}, DAEmpty)
	if got := c.UsedTrays(); !slices.Equal(got, want) {
		t.Errorf("UsedTrays = %v, want %v", got, want)
	}
}
