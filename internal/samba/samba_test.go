package samba

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/extfs"
	"ros/internal/pagecache"
	"ros/internal/sim"
	"ros/internal/vfs"
)

// countingFS wraps extfs, counts server-side operations, standing in for
// the Fig 7 trace, and sums the virtual time its files spend in Write.
type countingFS struct {
	vfs.FileSystem
	stats, creates int
	writeTime      time.Duration
}

func (c *countingFS) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	c.stats++
	return c.FileSystem.Stat(p, path)
}

func (c *countingFS) Create(p *sim.Proc, path string) (vfs.File, error) {
	c.creates++
	f, err := c.FileSystem.Create(p, path)
	if err != nil {
		return nil, err
	}
	return timedFile{f, &c.writeTime}, nil
}

// timedFile adds the time each Write takes to *busy.
type timedFile struct {
	vfs.File
	busy *time.Duration
}

func (f timedFile) Write(p *sim.Proc, data []byte) (int, error) {
	start := p.Now()
	n, err := f.File.Write(p, data)
	*f.busy += p.Now() - start
	return n, err
}

func newStack(t *testing.T, opts Options) (*sim.Env, *FS, *countingFS) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	disk := blockdev.New(env, 1<<30, blockdev.HDDProfile())
	inner := &countingFS{FileSystem: extfs.New(env, pagecache.New(env, disk, pagecache.Ext4Rates()))}
	return env, Wrap(env, inner, opts), inner
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("t", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestRoundTripThroughNAS(t *testing.T) {
	env, smb, _ := newStack(t, DefaultOptions())
	data := bytes.Repeat([]byte{0xAA, 0x55}, 300000)
	inSim(t, env, func(p *sim.Proc) {
		if err := vfs.WriteFile(p, smb, "/share/file.bin", data, 1<<20); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := vfs.ReadFile(p, smb, "/share/file.bin", 1<<20)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("round trip: %d bytes, %v", len(got), err)
		}
	})
}

func TestCreateMetadataAmplification(t *testing.T) {
	// Fig 7: one client create becomes stat*1-before + create + stat*5-after
	// against the server filesystem.
	env, smb, inner := newStack(t, DefaultOptions())
	inSim(t, env, func(p *sim.Proc) {
		f, err := smb.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close(p)
	})
	if inner.creates != 1 || inner.stats != 6 {
		t.Errorf("creates=%d stats=%d, want 1 and 6 (1 before + 5 after)", inner.creates, inner.stats)
	}
}

func TestWritePipeliningHidesServerTime(t *testing.T) {
	// Write-behind: the client waits only for the SMB stage of each write
	// (protocol, round trip, wire), never for the server filesystem's own
	// time on the same writes.
	const writes, size = 32, 1 << 20
	env, smb, inner := newStack(t, DefaultOptions())
	var clientTime time.Duration
	inSim(t, env, func(p *sim.Proc) {
		f, err := smb.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < writes; i++ {
			if _, err := f.Write(p, buf); err != nil {
				t.Fatal(err)
			}
		}
		clientTime = p.Now() - start
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	stage := writes * (dataProtoWrite + rtt + sim.ByteTime(size, netRate))
	if inner.writeTime <= 0 {
		t.Fatal("the server filesystem spent no time on the writes")
	}
	if clientTime != stage {
		t.Errorf("client waited %v for %d writes, want the SMB stage alone (%v), none of the server's own %v",
			clientTime, writes, stage, inner.writeTime)
	}
}

func TestCloseWaitsForWriteBehind(t *testing.T) {
	env, smb, inner := newStack(t, DefaultOptions())
	inSim(t, env, func(p *sim.Proc) {
		f, _ := smb.Create(p, "/durable")
		payload := bytes.Repeat([]byte{7}, 4<<20)
		if _, err := f.Write(p, payload); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// After Close, the server filesystem must hold all the bytes.
		fi, err := inner.FileSystem.Stat(p, "/durable")
		if err != nil || fi.Size != int64(len(payload)) {
			t.Errorf("server file after close: %+v, %v", fi, err)
		}
	})
}

func TestReadChargesWireTime(t *testing.T) {
	env, smb, _ := newStack(t, DefaultOptions())
	inSim(t, env, func(p *sim.Proc) {
		if err := vfs.WriteFile(p, smb, "/f", make([]byte, 10<<20), 1<<20); err != nil {
			t.Fatal(err)
		}
		f, _ := smb.Open(p, "/f")
		buf := make([]byte, 1<<20)
		start := p.Now()
		if _, err := f.Read(p, buf); err != nil {
			t.Fatal(err)
		}
		d := p.Now() - start
		// 1 MB over 10GbE (~0.8ms) + proto (~0.7ms) + RTT + server: >= 2ms.
		if d < 2*time.Millisecond {
			t.Errorf("1MB NAS read took %v, want >= 2ms (wire+proto)", d)
		}
		_ = f.Close(p)
	})
}

func TestReadRevalidateAddsCost(t *testing.T) {
	base := DefaultOptions()
	withReval := DefaultOptions()
	withReval.ReadRevalidate = 600 * time.Microsecond
	measure := func(opts Options) time.Duration {
		env, smb, _ := newStack(t, opts)
		var d time.Duration
		inSim(t, env, func(p *sim.Proc) {
			_ = vfs.WriteFile(p, smb, "/f", make([]byte, 1<<20), 1<<20)
			f, _ := smb.Open(p, "/f")
			start := p.Now()
			buf := make([]byte, 1<<20)
			_, _ = f.Read(p, buf)
			d = p.Now() - start
			_ = f.Close(p)
		})
		return d
	}
	plain := measure(base)
	reval := measure(withReval)
	if reval-plain < 500*time.Microsecond {
		t.Errorf("revalidation added only %v, want ~600us", reval-plain)
	}
}

func TestMetadataOpsForwarded(t *testing.T) {
	env, smb, _ := newStack(t, DefaultOptions())
	inSim(t, env, func(p *sim.Proc) {
		if err := vfs.WriteFile(p, smb, "/dir/f0", []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		if fi, err := smb.Stat(p, "/dir/f0"); err != nil || fi.Size != 1 {
			t.Errorf("Stat = %+v, %v", fi, err)
		}
	})
}

func TestWriteBehindErrorSurfacesOnClose(t *testing.T) {
	env := sim.NewEnv()
	inner := &failingFS{}
	smb := Wrap(env, inner, DefaultOptions())
	inSim(t, env, func(p *sim.Proc) {
		f, err := smb.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = f.Write(p, []byte("doomed"))
		if err := f.Close(p); err == nil {
			t.Error("Close swallowed the write-behind error")
		}
	})
}

// failingFS accepts creates but fails all writes.
type failingFS struct{ vfs.FileSystem }

func (f *failingFS) Create(p *sim.Proc, path string) (vfs.File, error) {
	return failFile{}, nil
}
func (f *failingFS) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	return vfs.FileInfo{}, nil
}

type failFile struct{}

func (failFile) Write(p *sim.Proc, data []byte) (int, error) {
	return 0, fmt.Errorf("server storage failed")
}
func (failFile) Read(p *sim.Proc, buf []byte) (int, error) { return 0, nil }
func (failFile) Close(p *sim.Proc) error                   { return nil }
