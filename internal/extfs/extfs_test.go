package extfs

import (
	"bytes"
	"errors"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/pagecache"
	"ros/internal/sim"
	"ros/internal/vfs"
)

func newFS(env *sim.Env) *FS {
	disk := blockdev.New(env, 1<<30, blockdev.HDDProfile())
	vol := pagecache.New(env, disk, pagecache.Ext4Rates())
	return New(env, vol)
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	fs := newFS(env)
	data := bytes.Repeat([]byte{0xAB, 0x12}, 50000)
	inSim(t, env, func(p *sim.Proc) {
		if err := vfs.WriteFile(p, fs, "/dir/file.bin", data, 4096); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := vfs.ReadFile(p, fs, "/dir/file.bin", 8192)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
}

func TestCreateTruncates(t *testing.T) {
	env := sim.NewEnv()
	fs := newFS(env)
	inSim(t, env, func(p *sim.Proc) {
		_ = vfs.WriteFile(p, fs, "/f", []byte("long original content"), 0)
		_ = vfs.WriteFile(p, fs, "/f", []byte("short"), 0)
		got, err := vfs.ReadFile(p, fs, "/f", 0)
		if err != nil || string(got) != "short" {
			t.Errorf("after truncate: %q %v", got, err)
		}
	})
}

func TestStat(t *testing.T) {
	env := sim.NewEnv()
	fs := newFS(env)
	inSim(t, env, func(p *sim.Proc) {
		_ = vfs.WriteFile(p, fs, "/a/x", []byte("1234"), 0)
		_ = vfs.WriteFile(p, fs, "/a/y", []byte("12"), 0)
		fi, err := fs.Stat(p, "/a/x")
		if err != nil || fi.Size != 4 || fi.IsDir {
			t.Errorf("Stat = %+v %v", fi, err)
		}
		if _, err := fs.Stat(p, "/missing"); !errors.Is(err, vfs.ErrNotFound) {
			t.Errorf("missing stat: %v", err)
		}
	})
}

func TestBaselineThroughputNear1GBs(t *testing.T) {
	// §5.3: ext4 on RAID-5 ~1.2 GB/s read, 1.0 GB/s write.
	env := sim.NewEnv()
	fs := newFS(env)
	const total = 256 << 20
	var wSec, rSec float64
	inSim(t, env, func(p *sim.Proc) {
		f, err := fs.Create(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		start := p.Now()
		for i := 0; i < total>>20; i++ {
			if _, err := f.Write(p, buf); err != nil {
				t.Fatal(err)
			}
		}
		_ = f.Close(p)
		wSec = (p.Now() - start).Seconds()
		r, err := fs.Open(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		start = p.Now()
		for {
			n, err := r.Read(p, buf)
			if err != nil || n == 0 {
				break
			}
		}
		rSec = (p.Now() - start).Seconds()
	})
	wMB := float64(total) / 1e6 / wSec
	rMB := float64(total) / 1e6 / rSec
	if wMB < 900 || wMB > 1100 {
		t.Errorf("write throughput = %.0f MB/s, want ~1000", wMB)
	}
	if rMB < 1100 || rMB > 1300 {
		t.Errorf("read throughput = %.0f MB/s, want ~1200", rMB)
	}
}
