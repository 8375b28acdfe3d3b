package olfs_test

import (
	"bytes"
	"testing"

	"ros/internal/faultinject/testkit"
	"ros/internal/sim"
)

// TestStashedTailsCannotOversubscribeBucket is the regression for "udf: no
// space left in volume" with two writers whose sizes are not 2 KB multiples:
// each stashes a partial tail block that Close writes out. The stash used to
// check for a free block without taking it, so a third writer could fill the
// bucket to its last free block behind both stashes, and the second Close
// failed. A stash now reserves its block.
func TestStashedTailsCannotOversubscribeBucket(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	a, b, c := testkit.Pat(1000, 1), testkit.Pat(3000, 2), testkit.Pat(2<<20, 3)
	bed.Run(t, func(p *sim.Proc) {
		wa, errA := bed.FS.CreateFile(p, "/tail/a")
		wb, errB := bed.FS.CreateFile(p, "/tail/b")
		wc, errC := bed.FS.CreateFile(p, "/tail/c")
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("CreateFile: %v %v %v", errA, errB, errC)
		}
		// a and b stash their tails in the open bucket; c then takes every
		// block it can and spills over into the next buckets.
		if _, err := wa.Write(p, a); err != nil {
			t.Fatalf("Write a: %v", err)
		}
		if _, err := wb.Write(p, b); err != nil {
			t.Fatalf("Write b: %v", err)
		}
		if _, err := wc.Write(p, c); err != nil {
			t.Fatalf("Write c: %v", err)
		}
		if err := wc.Close(p); err != nil {
			t.Fatalf("Close c: %v", err)
		}
		if err := wa.Close(p); err != nil {
			t.Fatalf("Close a: %v", err)
		}
		if err := wb.Close(p); err != nil {
			t.Fatalf("Close b: %v", err)
		}
		for name, want := range map[string][]byte{"/tail/a": a, "/tail/b": b, "/tail/c": c} {
			got, err := bed.FS.ReadFile(p, name)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("ReadFile %s: %d bytes, err=%v", name, len(got), err)
			}
		}
	})
}
