package olfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ros/internal/faultinject/testkit"
	"ros/internal/mv"
	"ros/internal/olfs"
	"ros/internal/sim"
	"ros/internal/vfs"
)

func noAutoBurn(c *olfs.Config) { c.AutoBurn = false }

func TestEmptyFileSemantics(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.WriteFile(p, "/e/empty", nil); err != nil {
			t.Fatalf("write empty: %v", err)
		}
		got, err := bed.FS.ReadFile(p, "/e/empty")
		if err != nil || len(got) != 0 {
			t.Errorf("read empty: %d bytes, %v", len(got), err)
		}
		fi, err := bed.FS.Stat(p, "/e/empty")
		if err != nil || fi.Size != 0 || fi.Version != 1 {
			t.Errorf("stat empty: %+v, %v", fi, err)
		}
		if _, err := bed.FS.ReadFirstByte(p, "/e/empty"); err == nil {
			t.Error("first byte of empty file succeeded")
		}
	})
}

func TestWriteToClosedHandle(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		fw, err := bed.FS.CreateFile(p, "/h/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(p, []byte("y")); err == nil {
			t.Error("write after close succeeded")
		}
		if err := fw.Close(p); err != nil {
			t.Errorf("double close: %v", err)
		}
	})
}

func TestOpenVersionErrors(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.WriteFile(p, "/v/f", []byte("only")); err != nil {
			t.Fatal(err)
		}
		if _, err := bed.FS.OpenFileVersion(p, "/v/f", 9); err == nil {
			t.Error("nonexistent version opened")
		}
		if _, err := bed.FS.OpenFileVersion(p, "/v/none", 1); err == nil {
			t.Error("nonexistent file version opened")
		}
	})
}

func TestDirectoryErrors(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		if err := bed.FS.Mkdir(p, "/d"); !errors.Is(err, vfs.ErrExist) {
			t.Errorf("duplicate mkdir: %v", err)
		}
		if _, err := bed.FS.OpenFile(p, "/d"); err == nil {
			t.Error("opened a directory for read")
		}
		if _, err := bed.FS.CreateFile(p, "/d"); err == nil {
			t.Error("created a file over a directory")
		}
		if _, err := bed.FS.ReadDir(p, "/d/none"); !errors.Is(err, vfs.ErrNotFound) {
			t.Errorf("readdir missing: %v", err)
		}
		// Root listing includes /d.
		des, err := bed.FS.ReadDir(p, "/")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, de := range des {
			if de.Name == "d" && de.IsDir {
				found = true
			}
		}
		if !found {
			t.Errorf("root listing = %+v", des)
		}
	})
}

func TestPartMissingAfterCatalogLoss(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: func(c *olfs.Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	}})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.WriteFile(p, "/pm/f", testkit.Pat(100*1024, 1)); err != nil {
			t.Fatal(err)
		}
		c, _ := bed.FS.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatal(err)
		}
		// Forget where the image lives: reads must fail cleanly.
		ix, _ := bed.FS.MV.Lookup("/pm/f")
		bed.FS.Cat.Forget(ix.Current().Parts[0])
		if _, err := bed.FS.ReadFile(p, "/pm/f"); !errors.Is(err, olfs.ErrPartMissing) {
			t.Errorf("read with lost catalog entry: %v", err)
		}
	})
}

func TestBufferExhaustion(t *testing.T) {
	// A buffer with very few slots: filling them all with unburned images
	// must produce a clean "buffer full" error rather than corruption or a
	// deadlock. Two buffer slots per cluster.StackConfig size each RAID-5
	// disk at 768 KB: 4.5 MB usable = 4 slots of 1 MB.
	bed := testkit.New(t, testkit.Options{
		BufferSlots: 2,
		Config:      noAutoBurn,
	})
	bed.Run(t, func(p *sim.Proc) {
		var werr error
		for i := 0; i < 10 && werr == nil; i++ {
			werr = bed.FS.WriteFile(p, fmt.Sprintf("/x/f%d", i), testkit.Pat(900*1024, byte(i)))
			if werr == nil {
				werr = bed.FS.Sync(p)
			}
		}
		if werr == nil {
			t.Error("expected buffer exhaustion")
			return
		}
		if !bytes.Contains([]byte(werr.Error()), []byte("buffer full")) {
			t.Errorf("exhaustion error: %v", werr)
		}
	})
}

func TestUnlinkDirectoryRules(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.WriteFile(p, "/ud/a/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := bed.FS.Unlink(p, "/ud/a"); err == nil {
			t.Error("unlinked non-empty directory")
		}
		if err := bed.FS.Unlink(p, "/ud/a/f"); err != nil {
			t.Fatal(err)
		}
		if err := bed.FS.Unlink(p, "/ud/a"); err != nil {
			t.Errorf("unlink empty dir: %v", err)
		}
		if err := bed.FS.Unlink(p, "/ud/a"); !errors.Is(err, vfs.ErrNotFound) {
			t.Errorf("double unlink: %v", err)
		}
	})
}

func TestVersionRingWrapUnderOLFS(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		for i := 1; i <= mv.MaxVersionEntries+5; i++ {
			if err := bed.FS.WriteFile(p, "/wrap/f", testkit.Pat(100, byte(i))); err != nil {
				t.Fatalf("v%d: %v", i, err)
			}
		}
		fi, _ := bed.FS.Stat(p, "/wrap/f")
		if fi.Version != mv.MaxVersionEntries+5 {
			t.Errorf("version = %d", fi.Version)
		}
		// The oldest retained version is still readable; pre-wrap ones gone.
		oldest := mv.MaxVersionEntries + 5 - mv.MaxVersionEntries + 1
		if _, err := bed.FS.OpenFileVersion(p, "/wrap/f", oldest); err != nil {
			t.Errorf("oldest retained v%d: %v", oldest, err)
		}
		if _, err := bed.FS.OpenFileVersion(p, "/wrap/f", oldest-1); err == nil {
			t.Errorf("pre-wrap v%d still open-able", oldest-1)
		}
	})
}

func TestStopWithPendingMoverRejectsIngest(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		if err := bed.FS.DirectIngest(p, "/s/f", testkit.Pat(1024, 1)); err != nil {
			t.Fatal(err)
		}
		if err := bed.FS.DirectDrain(p); err != nil {
			t.Fatal(err)
		}
		bed.FS.Stop()
		if err := bed.FS.DirectIngest(p, "/s/g", testkit.Pat(10, 2)); !errors.Is(err, olfs.ErrStopped) {
			t.Errorf("ingest after stop: %v", err)
		}
	})
}

func TestTraceCapturesDurations(t *testing.T) {
	bed := testkit.New(t, testkit.Options{Config: noAutoBurn})
	bed.Run(t, func(p *sim.Proc) {
		for _, path := range []string{"/tr/f", "/tr/g"} {
			if err := bed.FS.WriteFile(p, path, testkit.Pat(1024, 1)); err != nil {
				t.Fatal(err)
			}
		}
		trs := bed.FS.Tracer().Traces()
		if len(trs) != 2 {
			t.Fatalf("captured %d traces, want one per WriteFile", len(trs))
		}
		// Each request's trace holds its own internal ops, and only those.
		for _, tr := range trs {
			ops := 0
			var total time.Duration
			for _, sp := range tr.Spans() {
				if !strings.HasPrefix(sp.Name, "olfs.op.") {
					continue
				}
				ops++
				if sp.Stop < sp.Start || sp.Start < tr.Start || sp.Stop > tr.Stop {
					t.Errorf("trace %d: span %s [%v, %v] outside its request [%v, %v]",
						tr.ID, sp.Name, sp.Start, sp.Stop, tr.Start, tr.Stop)
				}
				total += sp.Stop - sp.Start
			}
			if ops != 5 {
				t.Errorf("trace %d: %d olfs.op spans, want 5 (stat,mknod,stat,write,close)", tr.ID, ops)
			}
			if total <= 0 {
				t.Errorf("trace %d: op span durations sum to zero", tr.ID)
			}
		}
	})
}
