package fsbench

import (
	"testing"

	"ros/internal/blockdev"
	"ros/internal/extfs"
	"ros/internal/pagecache"
	"ros/internal/sim"
)

func newFS(t *testing.T) (*sim.Env, *extfs.FS) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disk := blockdev.New(env, 2<<30, blockdev.HDDProfile())
	return env, extfs.New(env, pagecache.New(env, disk, pagecache.Ext4Rates()))
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("t", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestSingleStreamWriteAccounting(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		r, err := SingleStreamWrite(p, fs, "/f", 10<<20, 1<<20)
		if err != nil {
			t.Fatalf("SingleStreamWrite: %v", err)
		}
		if r.Bytes != 10<<20 || r.Ops != 10 {
			t.Errorf("bytes=%d ops=%d", r.Bytes, r.Ops)
		}
		if r.Elapsed <= 0 {
			t.Error("no elapsed time recorded")
		}
		// ext4 model: ~1 GB/s -> a 10 MB write is ~10 ms.
		if mbps := r.ThroughputMBps(); mbps < 700 || mbps > 1200 {
			t.Errorf("throughput = %.0f MB/s, want ~1000", mbps)
		}
	})
}

func TestSingleStreamReadMatchesWrite(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := SingleStreamWrite(p, fs, "/f", 5<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		r, err := SingleStreamRead(p, fs, "/f", 1<<20)
		if err != nil {
			t.Fatalf("SingleStreamRead: %v", err)
		}
		if r.Bytes != 5<<20 {
			t.Errorf("read %d bytes, want %d", r.Bytes, 5<<20)
		}
	})
}

func TestSingleStreamWriteUnalignedTail(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		total := int64(3<<20 + 777)
		r, err := SingleStreamWrite(p, fs, "/f", total, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bytes != total || r.Ops != 4 {
			t.Errorf("bytes=%d ops=%d", r.Bytes, r.Ops)
		}
		rr, _ := SingleStreamRead(p, fs, "/f", 1<<20)
		if rr.Bytes != total {
			t.Errorf("read back %d, want %d", rr.Bytes, total)
		}
	})
}

func TestZeroResultThroughput(t *testing.T) {
	var r Result
	if r.ThroughputMBps() != 0 {
		t.Error("zero-value Result throughput is not 0")
	}
}
