package udf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ros/internal/blockdev"
	"ros/internal/sim"
)

func TestWriterStreamsAndReadsBack(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 4<<20)
	data := make([]byte, 300000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	inSim(t, env, func(p *sim.Proc) {
		w, err := v.CreateWriter(p, "/stream/file.bin")
		if err != nil {
			t.Fatalf("CreateWriter: %v", err)
		}
		// Uneven chunk sizes exercise tail handling.
		for n := 0; n < len(data); {
			c := 777
			if c > len(data)-n {
				c = len(data) - n
			}
			wrote, err := w.Write(p, data[n:n+c])
			if err != nil || wrote != c {
				t.Fatalf("Write: %d %v", wrote, err)
			}
			n += c
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, err := v.ReadFile(p, "/stream/file.bin")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("streamed file mismatch")
		}
	})
}

func TestWriterShortWriteOnFull(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 64<<10) // 32 blocks
	inSim(t, env, func(p *sim.Proc) {
		w, err := v.CreateWriter(p, "/big")
		if err != nil {
			t.Fatalf("CreateWriter: %v", err)
		}
		data := make([]byte, 128<<10)
		n, err := w.Write(p, data)
		if !errors.Is(err, ErrNoSpace) {
			t.Fatalf("Write on small volume: n=%d err=%v", n, err)
		}
		if n <= 0 || n >= len(data) {
			t.Fatalf("short write n=%d", n)
		}
		if err := w.Close(p); err != nil {
			t.Fatalf("Close after short write: %v", err)
		}
		// The accepted prefix is durable and correct.
		got, err := v.ReadFile(p, "/big")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if len(got) != n {
			t.Errorf("stored %d bytes, want %d", len(got), n)
		}
	})
}

func TestWriterVisibleBeforeClose(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		w, err := v.CreateWriter(p, "/wip")
		if err != nil {
			t.Fatalf("CreateWriter: %v", err)
		}
		info, err := v.Stat(p, "/wip")
		if err != nil {
			t.Fatalf("Stat during write: %v", err)
		}
		if info.Size != 0 {
			t.Errorf("pre-close size = %d", info.Size)
		}
		_, _ = w.Write(p, []byte("x"))
		_ = w.Close(p)
	})
}

func TestCreateWriterOverwritesInOpenBucket(t *testing.T) {
	// §4.6: a file still in an opened bucket can simply be updated.
	env := sim.NewEnv()
	v := newVol(t, env, 1<<20)
	inSim(t, env, func(p *sim.Proc) {
		w, _ := v.CreateWriter(p, "/f")
		_, _ = w.Write(p, []byte("old content, quite long"))
		_ = w.Close(p)
		w2, err := v.CreateWriter(p, "/f")
		if err != nil {
			t.Fatalf("overwrite CreateWriter: %v", err)
		}
		_, _ = w2.Write(p, []byte("new"))
		_ = w2.Close(p)
		got, err := v.ReadFile(p, "/f")
		if err != nil || string(got) != "new" {
			t.Errorf("after overwrite: %q %v", got, err)
		}
		// Still exactly one directory entry.
		des, _ := v.ReadDir(p, "/")
		if len(des) != 1 {
			t.Errorf("root has %d entries", len(des))
		}
		// Directories cannot be overwritten.
		_ = v.MkdirAll(p, "/d")
		if _, err := v.CreateWriter(p, "/d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("CreateWriter over dir: %v", err)
		}
	})
}

func TestReaderRandomAccess(t *testing.T) {
	env := sim.NewEnv()
	v := newVol(t, env, 2<<20)
	data := make([]byte, 100000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	inSim(t, env, func(p *sim.Proc) {
		if err := v.WriteFile(p, "/r", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		r, err := v.OpenReader(p, "/r")
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		if r.Size() != int64(len(data)) {
			t.Errorf("Size = %d", r.Size())
		}
		for _, off := range []int64{0, 1, 2047, 2048, 50000, 99990} {
			buf := make([]byte, 100)
			n, err := r.ReadAt(p, buf, off)
			if err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			want := len(data) - int(off)
			if want > 100 {
				want = 100
			}
			if n != want || !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
				t.Errorf("ReadAt(%d) = %d bytes, mismatch", off, n)
			}
		}
		// Past EOF.
		if n, err := r.ReadAt(p, make([]byte, 10), int64(len(data))); n != 0 || err != nil {
			t.Errorf("past-EOF ReadAt = %d %v", n, err)
		}
	})
}

// Property: streaming arbitrary chunk sequences equals one-shot WriteFile.
func TestPropertyStreamEqualsWriteFile(t *testing.T) {
	f := func(chunks []uint16) bool {
		if len(chunks) > 12 {
			chunks = chunks[:12]
		}
		env := sim.NewEnv()
		d := blockdev.New(env, 4<<20, blockdev.SSDProfile())
		ok := true
		env.Go("t", func(p *sim.Proc) {
			v, err := Format(p, d, [16]byte{}, "prop")
			if err != nil {
				ok = false
				return
			}
			var full []byte
			w, err := v.CreateWriter(p, "/s")
			if err != nil {
				ok = false
				return
			}
			for i, c := range chunks {
				chunk := bytes.Repeat([]byte{byte(i + 1)}, int(c)%5000+1)
				full = append(full, chunk...)
				if _, err := w.Write(p, chunk); err != nil {
					ok = false
					return
				}
			}
			if err := w.Close(p); err != nil {
				ok = false
				return
			}
			got, err := v.ReadFile(p, "/s")
			ok = err == nil && bytes.Equal(got, full)
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterRefusesFinalizedVolume: a writer left open when its volume is
// finalized neither writes nor closes into it, so the image keeps the bytes
// it had at Finalize.
func TestWriterRefusesFinalizedVolume(t *testing.T) {
	env := sim.NewEnv()
	d := blockdev.New(env, 1<<20, blockdev.SSDProfile())
	inSim(t, env, func(p *sim.Proc) {
		v, err := Format(p, d, [16]byte{4}, "sealed")
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		w, err := v.CreateWriter(p, "/open")
		if err != nil {
			t.Fatalf("CreateWriter: %v", err)
		}
		if _, err := w.Write(p, bytes.Repeat([]byte{7}, 1914)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := v.Finalize(p); err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		before := make([]byte, d.Size())
		if err := d.ReadAt(p, before, 0); err != nil {
			t.Fatal(err)
		}
		if n, err := w.Write(p, []byte("late")); n != 0 || !errors.Is(err, ErrFinalized) {
			t.Errorf("Write after Finalize = %d, %v; want 0, ErrFinalized", n, err)
		}
		if err := w.Close(p); !errors.Is(err, ErrFinalized) {
			t.Errorf("Close after Finalize = %v, want ErrFinalized", err)
		}
		after := make([]byte, d.Size())
		if err := d.ReadAt(p, after, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Error("the finalized volume changed")
		}
	})
}
