package fsbench

import (
	"errors"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/extfs"
	"ros/internal/pagecache"
	"ros/internal/sim"
	"ros/internal/vfs"
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

func TestSmallFileLatencies(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		w, err := SmallFileWrite(p, fs, "/small", 20, 1024)
		if err != nil {
			t.Fatalf("SmallFileWrite: %v", err)
		}
		if w.Ops != 20 || len(w.Latencies) != 20 {
			t.Errorf("ops=%d latencies=%d", w.Ops, len(w.Latencies))
		}
		if w.MeanLatency() <= 0 {
			t.Error("no mean latency")
		}
		r, err := SmallFileRead(p, fs, "/small", 20, 1024)
		if err != nil {
			t.Fatalf("SmallFileRead: %v", err)
		}
		if r.Bytes != 20*1024 {
			t.Errorf("read %d bytes", r.Bytes)
		}
	})
}

func TestMultiStreamAggregates(t *testing.T) {
	env, fs := newFS(t)
	var agg Result
	inSim(t, env, func(p *sim.Proc) {
		var err error
		agg, err = MultiStreamWrite(p, fs, "/multi", 4, 4<<20, 1<<20)
		if err != nil {
			t.Fatalf("MultiStreamWrite: %v", err)
		}
	})
	if agg.Bytes != 16<<20 || agg.Ops != 16 {
		t.Errorf("bytes=%d ops=%d", agg.Bytes, agg.Ops)
	}
	// Concurrent streams share the cached volume: elapsed must exceed a
	// single stream's time but stay below 4x (overlap).
	if agg.Elapsed <= 0 || agg.Elapsed > 200*time.Millisecond {
		t.Errorf("elapsed = %v", agg.Elapsed)
	}
}

func TestMeanLatencyEmpty(t *testing.T) {
	var r Result
	if r.MeanLatency() != 0 || r.ThroughputMBps() != 0 {
		t.Error("zero-value Result math wrong")
	}
}

// refusingFS refuses to create one path and counts the files being created
// or written and not yet closed.
type refusingFS struct {
	vfs.FileSystem
	refuse string
	open   int
}

func (f *refusingFS) Create(p *sim.Proc, path string) (vfs.File, error) {
	if path == f.refuse {
		return nil, errors.New("create refused")
	}
	f.open++
	file, err := f.FileSystem.Create(p, path)
	if err != nil {
		f.open--
		return nil, err
	}
	return closeCounter{File: file, fs: f}, nil
}

type closeCounter struct {
	vfs.File
	fs *refusingFS
}

func (c closeCounter) Close(p *sim.Proc) error {
	c.fs.open--
	return c.File.Close(p)
}

// TestMultiStreamWriteWaitsForEveryStream: a stream that fails at once must
// not end the call while the other streams are still writing.
func TestMultiStreamWriteWaitsForEveryStream(t *testing.T) {
	env, fs := newFS(t)
	rfs := &refusingFS{FileSystem: fs, refuse: "/multi/stream-0"}
	inSim(t, env, func(p *sim.Proc) {
		if _, err := MultiStreamWrite(p, rfs, "/multi", 4, 4<<20, 1<<20); err == nil {
			t.Error("MultiStreamWrite with a refused stream returned no error")
		}
		if rfs.open != 0 {
			t.Errorf("MultiStreamWrite returned with %d streams still writing", rfs.open)
		}
	})
}
