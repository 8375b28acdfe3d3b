package mv

import (
	"bytes"
	"errors"
	"testing"

	"ros/internal/image"
	"ros/internal/sim"
)

// FuzzRestore decodes arbitrary checkpoint bodies, the bytes recovery reads
// back off an MV snapshot on disc. Restore must return a volume or
// ErrCorrupt, never panic, and on what it accepts decode∘encode is the
// identity: re-encoding the volume decoded from its own encoding gives the
// same bytes.
func FuzzRestore(f *testing.F) {
	env := sim.NewEnv()
	v := New(env, nil, 0)
	v.Restore(Index{Path: "/dir/f", Entries: []VersionEntry{{Version: 1, Size: 3,
		Parts: []image.ID{image.NewID(1)}, PartLens: []int64{3}}}, Forepart: []byte("abc")})
	v.Restore(Index{Path: "/empty", Dir: true})
	v.state["catalog"] = []byte(`{"trays":[1,2]}`)
	ck, err := v.CheckpointBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ck) // testdata/fuzz/FuzzRestore holds the corrupt bodies found so far
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := Restore(env, nil, 0, body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Restore error %v is not ErrCorrupt", err)
			}
			return
		}
		enc, err := got.CheckpointBytes()
		if err != nil {
			t.Fatalf("encoding an accepted checkpoint: %v", err)
		}
		again, err := Restore(env, nil, 0, enc)
		if err != nil {
			t.Fatalf("Restore of its own encoding: %v\n%s", err, enc)
		}
		enc2, err := again.CheckpointBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("decode∘encode is not the identity:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}

// TestRestoreRefusesPathBelowFile: a checkpoint that puts an index below a
// file is corrupt; it used to panic on the file's missing children map.
func TestRestoreRefusesPathBelowFile(t *testing.T) {
	env := sim.NewEnv()
	_, err := Restore(env, nil, 0, []byte(`{"Nodes":[{"Path":"/a"},{"Path":"/a/b/c"}]}`))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Restore = %v, want ErrCorrupt", err)
	}
	v := New(env, nil, 0)
	v.Restore(Index{Path: "/a"})
	if err := v.Restore(Index{Path: "/a/b", Dir: true}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("Volume.Restore below a file = %v, want ErrNotDir", err)
	}
	if v.DirCount() != 1 || v.FileCount() != 1 {
		t.Fatalf("refused Restore changed the volume: %d dirs, %d files", v.DirCount(), v.FileCount())
	}
}
