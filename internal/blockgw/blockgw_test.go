package blockgw

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ros/internal/blockdev"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
	"ros/internal/udf"
)

func newFS(t *testing.T) (*sim.Env, *olfs.FS) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, err := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25, PopulateAll: true})
	if err != nil {
		t.Fatal(err)
	}
	mvStore := blockdev.New(env, 1<<30, blockdev.SSDProfile())
	hdds := make([]blockdev.Device, 7)
	for i := range hdds {
		hdds[i] = blockdev.New(env, 64<<20, blockdev.HDDProfile())
	}
	arr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := olfs.New(env, olfs.Config{
		DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
		BucketBytes: 4 << 20, BurnStagger: time.Second,
	}, lib, mvStore, pagecache.New(env, arr, pagecache.Ext4Rates()))
	if err != nil {
		t.Fatal(err)
	}
	return env, fs
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestCreateOpenReadWrite(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		vol, err := Create(p, fs, "lun0", 8<<20, 1<<20)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if vol.Size() != 8<<20 || vol.ExtentSize() != 1<<20 {
			t.Errorf("geometry: %d/%d", vol.Size(), vol.ExtentSize())
		}
		data := bytes.Repeat([]byte{0xB4, 0x17}, 300000)
		if err := vol.WriteAt(p, data, 12345); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		got := make([]byte, len(data))
		if err := vol.ReadAt(p, got, 12345); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
		// Unwritten regions read as zeros (thin provisioning).
		z := make([]byte, 1024)
		z[0] = 0xFF
		if err := vol.ReadAt(p, z, 7<<20); err != nil {
			t.Fatalf("zero read: %v", err)
		}
		for _, b := range z {
			if b != 0 {
				t.Fatal("unwritten extent not zero")
			}
		}
		// Reopen from metadata.
		vol2, err := Open(p, fs, "lun0")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		got2 := make([]byte, len(data))
		if err := vol2.ReadAt(p, got2, 12345); err != nil || !bytes.Equal(got2, data) {
			t.Errorf("reopened read: %v", err)
		}
	})
}

func TestVolumeErrors(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := Open(p, fs, "nope"); !errors.Is(err, ErrNoSuchVolume) {
			t.Errorf("open missing: %v", err)
		}
		if _, err := Create(p, fs, "lun1", 0, 0); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("zero size: %v", err)
		}
		if _, err := Create(p, fs, "bad/name", 1<<20, 0); err == nil {
			t.Error("bad name accepted")
		}
		vol, err := Create(p, fs, "lun1", 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Create(p, fs, "lun1", 1<<20, 0); !errors.Is(err, ErrVolumeExists) {
			t.Errorf("duplicate create: %v", err)
		}
		if err := vol.WriteAt(p, make([]byte, 10), 1<<20); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("write past end: %v", err)
		}
		if err := vol.ReadAt(p, make([]byte, 10), -1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative read: %v", err)
		}
	})
}

func TestListAndDelete(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		if names, _ := List(p, fs); len(names) != 0 {
			t.Errorf("initial list: %v", names)
		}
		v, _ := Create(p, fs, "a", 2<<20, 1<<20)
		_, _ = Create(p, fs, "b", 2<<20, 1<<20)
		_ = v.WriteAt(p, []byte("x"), 0)
		names, err := List(p, fs)
		if err != nil || len(names) != 2 {
			t.Errorf("List = %v, %v", names, err)
		}
		if err := Delete(p, fs, "a"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := Open(p, fs, "a"); !errors.Is(err, ErrNoSuchVolume) {
			t.Errorf("open after delete: %v", err)
		}
	})
}

func TestVolumeSurvivesBurn(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		vol, _ := Create(p, fs, "cold", 4<<20, 1<<20)
		data := bytes.Repeat([]byte{0x5C}, 2<<20)
		if err := vol.WriteAt(p, data, 1<<20); err != nil {
			t.Fatal(err)
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		got := make([]byte, len(data))
		if err := vol.ReadAt(p, got, 1<<20); err != nil || !bytes.Equal(got, data) {
			t.Errorf("block volume after burn: %v", err)
		}
	})
}

func TestUDFOnTopOfBlockVolume(t *testing.T) {
	// The gateway satisfies udf.Backend, so a filesystem can be formatted on
	// a block volume that itself lives on the optical archive — the
	// composition an iSCSI initiator would create.
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		vol, err := Create(p, fs, "fsvol", 2<<20, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		var backend udf.Backend = vol
		inner, err := udf.Format(p, backend, [16]byte{0xB1}, "nested")
		if err != nil {
			t.Fatalf("Format on block volume: %v", err)
		}
		if err := inner.WriteFile(p, "/nested/file.txt", []byte("turtles all the way down")); err != nil {
			t.Fatalf("nested write: %v", err)
		}
		got, err := inner.ReadFile(p, "/nested/file.txt")
		if err != nil || string(got) != "turtles all the way down" {
			t.Errorf("nested read: %q, %v", got, err)
		}
		// Reopen the nested FS from a fresh gateway handle.
		vol2, _ := Open(p, fs, "fsvol")
		inner2, err := udf.Open(p, vol2)
		if err != nil {
			t.Fatalf("reopen nested: %v", err)
		}
		if got, _ := inner2.ReadFile(p, "/nested/file.txt"); string(got) != "turtles all the way down" {
			t.Error("nested fs lost data across handles")
		}
	})
}

// Property: random writes against a plain byte-slice oracle.
func TestPropertyMatchesByteOracle(t *testing.T) {
	f := func(seed int64) bool {
		env, fs := newFS(t)
		ok := true
		inSim(t, env, func(p *sim.Proc) {
			const size = 1 << 20
			vol, err := Create(p, fs, "prop", size, 64<<10)
			if err != nil {
				ok = false
				return
			}
			oracle := make([]byte, size)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 25; step++ {
				off := rng.Int63n(size - 1)
				n := rng.Intn(int(size-off)) % 100000
				if n == 0 {
					n = 1
				}
				if rng.Intn(3) == 0 {
					got := make([]byte, n)
					if err := vol.ReadAt(p, got, off); err != nil {
						ok = false
						return
					}
					if !bytes.Equal(got, oracle[off:off+int64(n)]) {
						ok = false
						return
					}
				} else {
					data := make([]byte, n)
					seedB := byte(rng.Intn(256))
					for i := range data {
						data[i] = byte(i)*3 + seedB
					}
					if err := vol.WriteAt(p, data, off); err != nil {
						ok = false
						return
					}
					copy(oracle[off:], data)
				}
			}
			full := make([]byte, size)
			if err := vol.ReadAt(p, full, 0); err != nil || !bytes.Equal(full, oracle) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
