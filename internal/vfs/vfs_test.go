package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ros/internal/sim"
)

// memFS is a minimal in-memory FileSystem used to test the helpers and to
// serve as the reference implementation of the interface contract.
type memFS struct {
	files map[string][]byte
	// op counters
	creates, opens, stats int
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

type memFile struct {
	fs      *memFS
	name    string
	off     int
	buf     []byte
	writing bool
	closed  bool
}

func (m *memFS) Create(p *sim.Proc, path string) (File, error) {
	m.creates++
	return &memFile{fs: m, name: path, writing: true}, nil
}

func (m *memFS) Open(p *sim.Proc, path string) (File, error) {
	m.opens++
	data, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return &memFile{fs: m, name: path, buf: data}, nil
}

func (m *memFS) Stat(p *sim.Proc, path string) (FileInfo, error) {
	m.stats++
	data, ok := m.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return FileInfo{Path: path, Size: int64(len(data))}, nil
}

func (m *memFS) Mkdir(p *sim.Proc, path string) error { return nil }
func (m *memFS) ReadDir(p *sim.Proc, path string) ([]DirEntry, error) {
	return nil, nil
}
func (m *memFS) Unlink(p *sim.Proc, path string) error {
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(m.files, path)
	return nil
}

func (f *memFile) Write(p *sim.Proc, data []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writing {
		return 0, ErrReadOnly
	}
	f.buf = append(f.buf, data...)
	return len(data), nil
}

func (f *memFile) Read(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if f.off >= len(f.buf) {
		return 0, nil
	}
	n := copy(buf, f.buf[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Close(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	if f.writing {
		f.fs.files[f.name] = f.buf
	}
	return nil
}

func inSim(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	env.Go("t", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestWriteFileChunksAndCommits(t *testing.T) {
	fs := newMemFS()
	data := bytes.Repeat([]byte{1, 2, 3}, 100000)
	inSim(t, func(p *sim.Proc) {
		if err := WriteFile(p, fs, "/f", data, 4096); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := ReadFile(p, fs, "/f", 7000)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
	if fs.creates != 1 || fs.opens != 1 {
		t.Errorf("creates=%d opens=%d", fs.creates, fs.opens)
	}
}

func TestWriteFileDefaultChunk(t *testing.T) {
	fs := newMemFS()
	inSim(t, func(p *sim.Proc) {
		if err := WriteFile(p, fs, "/f", []byte("tiny"), 0); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := ReadFile(p, fs, "/f", 0)
		if err != nil || string(got) != "tiny" {
			t.Errorf("got %q err %v", got, err)
		}
	})
}

func TestReadFileMissing(t *testing.T) {
	fs := newMemFS()
	inSim(t, func(p *sim.Proc) {
		if _, err := ReadFile(p, fs, "/missing", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("ReadFile missing: %v", err)
		}
	})
}

func TestEmptyFile(t *testing.T) {
	fs := newMemFS()
	inSim(t, func(p *sim.Proc) {
		if err := WriteFile(p, fs, "/empty", nil, 0); err != nil {
			t.Fatalf("WriteFile empty: %v", err)
		}
		got, err := ReadFile(p, fs, "/empty", 0)
		if err != nil || len(got) != 0 {
			t.Errorf("empty read: %d bytes, %v", len(got), err)
		}
	})
}

func TestFileContractCloseSemantics(t *testing.T) {
	fs := newMemFS()
	inSim(t, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/c")
		_, _ = f.Write(p, []byte("x"))
		if err := f.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := f.Write(p, []byte("y")); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close: %v", err)
		}
		if err := f.Close(p); !errors.Is(err, ErrClosed) {
			t.Errorf("double close: %v", err)
		}
	})
}
