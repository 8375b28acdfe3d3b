package olfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
)

// testbed assembles a small but complete ROS: 1 roller, 2 drive groups,
// 25 GB discs, 1 MB buckets (BucketBytes override), 2+1 redundancy.
type testbed struct {
	env *sim.Env
	lib *rack.Library
	fs  *FS
	mvS *blockdev.Disk
	buf *pagecache.Volume
}

func newBed(t *testing.T, mod func(*Config)) *testbed {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, err := rack.New(env, rack.Config{
		Rollers: 1, DriveGroups: 2, Media: optical.Media25,
	})
	if err != nil {
		t.Fatal(err)
	}
	// MV on a RAID-1 SSD pair.
	ssds := []blockdev.Device{
		blockdev.New(env, 1<<30, blockdev.SSDProfile()),
		blockdev.New(env, 1<<30, blockdev.SSDProfile()),
	}
	mvArr, err := raid.New(env, raid.RAID1, ssds, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Buffer: cached RAID-5 of 7 HDDs.
	hdds := make([]blockdev.Device, 7)
	for i := range hdds {
		hdds[i] = blockdev.New(env, 16<<20, blockdev.HDDProfile())
	}
	bufArr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	buf := pagecache.New(env, bufArr, pagecache.Ext4Rates())
	buf.AttachObs(lib.Obs(), "buffer")
	cfg := Config{
		DataDiscs:   2,
		ParityDiscs: 1,
		AutoBurn:    true,
		BucketBytes: 1 << 20,
		BurnStagger: time.Second, // keep multi-disc tests quick in virtual time
	}
	if mod != nil {
		mod(&cfg)
	}
	fs, err := New(env, cfg, lib, mvArr, buf)
	if err != nil {
		t.Fatal(err)
	}
	mvDisk, _ := ssds[0].(*blockdev.Disk)
	return &testbed{env: env, lib: lib, fs: fs, mvS: mvDisk, buf: buf}
}

func (tb *testbed) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	tb.env.Go("test", fn)
	tb.env.Run()
	if tb.env.Deadlocked() {
		t.Fatal("simulation deadlocked")
	}
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

func TestWriteReadInBucket(t *testing.T) {
	tb := newBed(t, nil)
	data := pat(5000, 1)
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/exp/a.dat", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := tb.fs.ReadFile(p, "/exp/a.dat")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
	if tb.fs.m.filesWritten.Value() != 1 || tb.fs.m.filesRead.Value() != 1 {
		t.Errorf("counters: written=%d read=%d", tb.fs.m.filesWritten.Value(), tb.fs.m.filesRead.Value())
	}
}

// opNames returns the olfs.op.* child spans of tr in start order, prefix
// stripped: Fig 7's internal-operation sequence for one request.
func opNames(tr *obs.Trace) []string {
	var names []string
	for _, sp := range tr.Spans() {
		if name, ok := strings.CutPrefix(sp.Name, "olfs.op."); ok {
			names = append(names, name)
		}
	}
	return names
}

// lastTrace returns the most recently finished trace in fs's journal.
func lastTrace(t *testing.T, fs *FS) *obs.Trace {
	t.Helper()
	trs := fs.Tracer().Traces()
	if len(trs) == 0 {
		t.Fatal("no trace captured")
	}
	return trs[len(trs)-1]
}

func TestFig7WriteTraceSequence(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.DirectIO = true; c.AutoBurn = false })
	var elapsed time.Duration
	tb.run(t, func(p *sim.Proc) {
		start := p.Now()
		if err := tb.fs.WriteFile(p, "/t/file", pat(1024, 2)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		elapsed = p.Now() - start
	})
	tr := lastTrace(t, tb.fs)
	if tr.Name != "olfs.write" {
		t.Fatalf("last trace is %s, want olfs.write", tr.Name)
	}
	names := opNames(tr)
	want := []string{"stat", "mknod", "stat", "write", "close"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("trace = %v, want %v (Fig 7)", names, want)
	}
	// Fig 7: ~16 ms for a 1 KB direct-I/O write.
	if elapsed < 13*time.Millisecond || elapsed > 19*time.Millisecond {
		t.Errorf("1KB write latency = %v, want ~16ms (Fig 7)", elapsed)
	}
}

func TestFig7ReadTraceSequence(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.DirectIO = true; c.AutoBurn = false })
	var elapsed time.Duration
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/t/file", pat(1024, 3)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		start := p.Now()
		if _, err := tb.fs.ReadFile(p, "/t/file"); err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		elapsed = p.Now() - start
	})
	tr := lastTrace(t, tb.fs)
	if tr.Name != "olfs.read" {
		t.Fatalf("last trace is %s, want olfs.read", tr.Name)
	}
	// A 1 KB file is one read request: the paper's stat, read, close.
	if got := strings.Join(opNames(tr), ","); got != "stat,read,close" {
		t.Errorf("trace = %s, want stat,read,close (Fig 7)", got)
	}
	// Fig 7: ~9 ms for a 1 KB direct-I/O read.
	if elapsed < 7*time.Millisecond || elapsed > 13*time.Millisecond {
		t.Errorf("1KB read latency = %v, want ~9ms (Fig 7)", elapsed)
	}
}

func TestVersioningOnUpdate(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	tb.run(t, func(p *sim.Proc) {
		for v := 1; v <= 3; v++ {
			if err := tb.fs.WriteFile(p, "/f", pat(100*v, byte(v))); err != nil {
				t.Fatalf("write v%d: %v", v, err)
			}
		}
		got, err := tb.fs.ReadFile(p, "/f")
		if err != nil || !bytes.Equal(got, pat(300, 3)) {
			t.Errorf("current version wrong: len=%d err=%v", len(got), err)
		}
		// Historical versions retrievable (§4.6 data provenance).
		fr, err := tb.fs.OpenFileVersion(p, "/f", 1)
		if err != nil {
			t.Fatalf("OpenFileVersion: %v", err)
		}
		buf := make([]byte, 200)
		n, err := fr.ReadAt(p, buf, 0)
		if err != nil || n != 100 || !bytes.Equal(buf[:n], pat(100, 1)) {
			t.Errorf("version 1 read: n=%d err=%v", n, err)
		}
	})
}

func TestFileSplitsAcrossBuckets(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	// 2.5 MB file into 1 MB buckets: must split into >= 3 subfiles.
	data := pat(2500*1024, 7)
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/big/movie.bin", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		ix, err := tb.fs.MV.Stat(p, "/big/movie.bin")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		cur := ix.Current()
		if len(cur.Parts) < 3 {
			t.Errorf("parts = %d, want >= 3 for a 2.5MB file in 1MB buckets", len(cur.Parts))
		}
		var sum int64
		for _, l := range cur.PartLens {
			sum += l
		}
		if sum != int64(len(data)) || cur.Size != int64(len(data)) {
			t.Errorf("part lens sum=%d size=%d want %d", sum, cur.Size, len(data))
		}
		got, err := tb.fs.ReadFile(p, "/big/movie.bin")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("split file reassembly mismatch")
		}
	})
	if tb.fs.m.splitFiles.Value() == 0 {
		t.Error("olfs.split_files is zero")
	}
}

func TestBurnPipelineEndToEnd(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	files := map[string][]byte{}
	tb.run(t, func(p *sim.Proc) {
		// Fill two buckets' worth of data.
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("/arch/f%02d", i)
			files[name] = pat(400*1024, byte(i+1))
			if err := tb.fs.WriteFile(p, name, files[name]); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn failed: %v", err)
		}
	})
	// Catalog must show a Used tray and placed images.
	used := 0
	for _, st := range tb.fs.Cat.DA {
		if st == image.DAUsed {
			used++
		}
	}
	if used != 1 {
		t.Errorf("used trays = %d, want 1", used)
	}
	if len(tb.fs.Cat.DIL) < 3 { // 2+ data images + 1 parity
		t.Errorf("DIL entries = %d, want >= 3", len(tb.fs.Cat.DIL))
	}
	// Discs physically burned, in their tray or still in the drives.
	burnt := 0
	for l := 0; l < rack.LayersPerRoller; l++ {
		for s := 0; s < rack.SlotsPerLayer; s++ {
			for pos := 0; pos < rack.DiscsPerTray; pos++ {
				d := tb.lib.Disc(rack.TrayID{Layer: l, Slot: s}, pos)
				if d != nil && !d.Blank() {
					burnt++
				}
			}
		}
	}
	if burnt < 3 {
		t.Errorf("burned discs = %d, want >= 3", burnt)
	}
}

func TestReadFromDiscAfterEviction(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true // force reads to go to disc
	})
	data := pat(300*1024, 9)
	var fetchLatency time.Duration
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/cold/x.bin", data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatalf("FlushAndBurn: %v", err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		// The burned array stays in its drives until evicted; put it back.
		if err := tb.fs.UnloadIdle(p); err != nil {
			t.Fatalf("UnloadIdle: %v", err)
		}
		start := p.Now()
		got, err := tb.fs.ReadFile(p, "/cold/x.bin")
		if err != nil {
			t.Fatalf("ReadFile from disc: %v", err)
		}
		fetchLatency = p.Now() - start
		if !bytes.Equal(got, data) {
			t.Error("disc read mismatch")
		}
	})
	if tb.fs.m.cacheMisses.Value() == 0 || tb.fs.m.fetchTasks.Value() == 0 {
		t.Errorf("misses=%d fetches=%d", tb.fs.m.cacheMisses.Value(), tb.fs.m.fetchTasks.Value())
	}
	// Mechanical fetch dominates: ~70 s load + spin-up + mount + read.
	if fetchLatency < 69*time.Second || fetchLatency > 110*time.Second {
		t.Errorf("fetch read latency = %v, want ~70-90s (Table 1 row 4)", fetchLatency)
	}
}

func TestSecondReadHitsLoadedDrive(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/c/a", pat(100*1024, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tb.fs.WriteFile(p, "/c/b", pat(100*1024, 2)); err != nil {
			t.Fatal(err)
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		if _, err := tb.fs.ReadFile(p, "/c/a"); err != nil {
			t.Fatalf("first read: %v", err)
		}
		start := p.Now()
		if _, err := tb.fs.ReadFile(p, "/c/b"); err != nil {
			t.Fatalf("second read: %v", err)
		}
		d := p.Now() - start
		// Array already in drives: sub-second access (Table 1 row 3 regime).
		if d > 5*time.Second {
			t.Errorf("warm disc read took %v, want < 5s", d)
		}
	})
}

func TestAutoBurnTriggers(t *testing.T) {
	tb := newBed(t, nil) // AutoBurn on
	tb.run(t, func(p *sim.Proc) {
		// Write enough to seal >= 2 buckets (DataDiscs=2): ~2.5 MB.
		if err := tb.fs.WriteFile(p, "/auto/big", pat(2500*1024, 5)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		// Let the burn pipeline drain.
		p.Sleep(4 * time.Hour)
	})
	if tb.fs.m.burnTasks.Value() == 0 {
		t.Fatal("auto burn never triggered")
	}
	used := 0
	for _, st := range tb.fs.Cat.DA {
		if st == image.DAUsed {
			used++
		}
	}
	if used == 0 {
		t.Error("no tray marked Used after auto burn")
	}
}

func TestReadCacheHitAfterBurn(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false }) // keep cached copies
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/rc/f", pat(200*1024, 4)); err != nil {
			t.Fatal(err)
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		start := p.Now()
		if _, err := tb.fs.ReadFile(p, "/rc/f"); err != nil {
			t.Fatalf("read: %v", err)
		}
		if d := p.Now() - start; d > time.Second {
			t.Errorf("cached read took %v — should hit the buffer copy", d)
		}
	})
	if tb.fs.m.cacheHits.Value() == 0 {
		t.Error("no cache hit recorded")
	}
}

func TestScrubCleanTray(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/s/f", pat(500*1024, 6)); err != nil {
			t.Fatal(err)
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		var tray rack.TrayID
		for k, st := range tb.fs.Cat.DA {
			if st == image.DAUsed {
				fmt.Sscanf(k, "r%d/L%d/S%d", &tray.Roller, &tray.Layer, &tray.Slot)
			}
		}
		rep, err := tb.fs.ScrubTray(p, tray)
		if err != nil {
			t.Fatalf("ScrubTray: %v", err)
		}
		if len(rep.BadStrips) != 0 {
			t.Errorf("clean tray has %d bad strips", len(rep.BadStrips))
		}
	})
}

func TestRecoverImageFromParity(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	data := pat(600*1024, 8)
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/r/precious", data); err != nil {
			t.Fatal(err)
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		// Find the image holding the file and destroy its disc.
		ix, _ := tb.fs.MV.Stat(p, "/r/precious")
		imgID := ix.Current().Parts[0]
		addr, ok := tb.fs.Cat.Locate(imgID)
		if !ok {
			t.Fatal("image not in DIL")
		}
		tb.lib.Disc(addr.Tray, addr.Pos).Fail()

		nb, err := tb.fs.RecoverImage(p, imgID)
		if err != nil {
			t.Fatalf("RecoverImage: %v", err)
		}
		if nb.State() != bucket.StateFilled {
			t.Errorf("recovered bucket state = %v", nb.State())
		}
		// The file now reads from the recovered buffer image.
		got, err := tb.fs.ReadFile(p, "/r/precious")
		if err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("recovered data mismatch")
		}
	})
}

func TestVFSInterface(t *testing.T) {
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	tb.run(t, func(p *sim.Proc) {
		fs := tb.fs
		if err := fs.Mkdir(p, "/docs"); err != nil {
			t.Fatalf("Mkdir: %v", err)
		}
		f, err := fs.Create(p, "/docs/readme.txt")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := f.Write(p, []byte("hello ROS")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		fi, err := fs.Stat(p, "/docs/readme.txt")
		if err != nil || fi.Size != 9 || fi.IsDir {
			t.Errorf("Stat = %+v, %v", fi, err)
		}
		des, err := fs.ReadDir(p, "/docs")
		if err != nil || len(des) != 1 || des[0].Name != "readme.txt" {
			t.Errorf("ReadDir = %+v, %v", des, err)
		}
		r, err := fs.Open(p, "/docs/readme.txt")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		buf := make([]byte, 100)
		n, _ := r.Read(p, buf)
		if string(buf[:n]) != "hello ROS" {
			t.Errorf("Read = %q", buf[:n])
		}
		_ = r.Close(p)
		if err := fs.Unlink(p, "/docs/readme.txt"); err != nil {
			t.Fatalf("Unlink: %v", err)
		}
		if _, err := fs.Stat(p, "/docs/readme.txt"); err == nil {
			t.Error("stat after unlink succeeded")
		}
	})
}

func TestForepartFirstByte(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
		c.Forepart = true
	})
	tb.run(t, func(p *sim.Proc) {
		if err := tb.fs.WriteFile(p, "/fp/f", pat(100*1024, 3)); err != nil {
			t.Fatal(err)
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		start := p.Now()
		b, err := tb.fs.ReadFirstByte(p, "/fp/f")
		if err != nil {
			t.Fatalf("ReadFirstByte: %v", err)
		}
		d := p.Now() - start
		if b != pat(1, 3)[0] {
			t.Errorf("first byte = %d", b)
		}
		// §4.8: "the first word of the file can quickly respond within 2 ms"
		// (plus our stat overhead).
		if d > 10*time.Millisecond {
			t.Errorf("first byte latency = %v, want ms-scale (forepart)", d)
		}
	})
	if tb.fs.m.forepartHits.Value() != 1 {
		t.Errorf("olfs.forepart_hits = %d", tb.fs.m.forepartHits.Value())
	}
}

func TestCrashReopen(t *testing.T) {
	env := sim.NewEnv()
	lib, _ := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25})
	mvStore := blockdev.New(env, 1<<30, blockdev.SSDProfile())
	bufStore := pagecache.New(env, blockdev.New(env, 64<<20, blockdev.SSDProfile()), pagecache.Ext4Rates())
	cfg := Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false, BucketBytes: 1 << 20, BurnStagger: time.Second}
	fs1, err := New(env, cfg, lib, mvStore, bufStore)
	if err != nil {
		t.Fatal(err)
	}
	data := pat(64*1024, 2)
	var fs2 *FS
	env.Go("test", func(p *sim.Proc) {
		if err := fs1.WriteFile(p, "/persist/f", data); err != nil {
			t.Errorf("WriteFile: %v", err)
			return
		}
		if err := fs1.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
			return
		}
		fs1.Stop()
		// "Crash": reopen from the same backends.
		fs2, err = Reopen(env, p, cfg, lib, mvStore, bufStore)
		if err != nil {
			t.Errorf("Reopen: %v", err)
			return
		}
		got, err := fs2.ReadFile(p, "/persist/f")
		if err != nil {
			t.Errorf("read after reopen: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("data lost across crash")
		}
		// The unsealed bucket was re-adopted: more writes continue in it.
		if err := fs2.WriteFile(p, "/persist/g", pat(1000, 3)); err != nil {
			t.Errorf("write after reopen: %v", err)
		}
	})
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

// TestReopenKeepsCounting: a controller restart through Reopen on the same
// registry continues every count rather than restarting it, and the MV
// volume Reopen loads records its index operations like the one it replaces.
func TestReopenKeepsCounting(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, _ := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25})
	mvStore := blockdev.New(env, 1<<30, blockdev.SSDProfile())
	bufStore := pagecache.New(env, blockdev.New(env, 64<<20, blockdev.SSDProfile()), pagecache.Ext4Rates())
	cfg := Config{DataDiscs: 2, ParityDiscs: 1, BucketBytes: 1 << 20, BurnStagger: time.Second}
	fs1, err := New(env, cfg, lib, mvStore, bufStore)
	if err != nil {
		t.Fatal(err)
	}
	reg := lib.Obs()
	var opsAtCrash int64
	env.Go("test", func(p *sim.Proc) {
		if err := fs1.WriteFile(p, "/persist/f", pat(64<<10, 2)); err != nil {
			t.Errorf("WriteFile: %v", err)
			return
		}
		if err := fs1.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
			return
		}
		fs1.Stop()
		opsAtCrash = reg.Counter("mv.ops").Value()
		fs2, err := Reopen(env, p, cfg, lib, mvStore, bufStore)
		if err != nil {
			t.Errorf("Reopen: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := fs2.ReadFile(p, "/persist/f"); err != nil {
				t.Errorf("read after reopen: %v", err)
				return
			}
		}
	})
	env.Run()
	if got := reg.Counter("olfs.files_written").Value(); got != 1 {
		t.Errorf("olfs.files_written = %d after Reopen, want 1", got)
	}
	if got := reg.Counter("olfs.files_read").Value(); got != 5 {
		t.Errorf("olfs.files_read = %d, want 5", got)
	}
	ops, samples := reg.Counter("mv.ops").Value(), reg.Histogram("mv.op.latency").Count()
	if ops <= opsAtCrash {
		t.Errorf("mv.ops = %d after five reads on the reopened volume, was %d at the crash", ops, opsAtCrash)
	}
	if ops != samples {
		t.Errorf("mv.ops = %d but mv.op.latency holds %d samples: one op, one sample", ops, samples)
	}
}

func TestNamespaceRecoveryFromDiscs(t *testing.T) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.RecycleAfterBurn = true
	})
	files := map[string][]byte{
		"/docs/a.txt":     pat(50*1024, 1),
		"/docs/b.txt":     pat(80*1024, 2),
		"/media/clip.bin": pat(300*1024, 3),
	}
	tb.run(t, func(p *sim.Proc) {
		for name, data := range files {
			if err := tb.fs.WriteFile(p, name, data); err != nil {
				t.Fatal(err)
			}
		}
		c, _ := tb.fs.FlushAndBurn(p)
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		// Record which trays were used, then simulate total MV loss.
		var trays []rack.TrayID
		for k, st := range tb.fs.Cat.DA {
			if st == image.DAUsed {
				var id rack.TrayID
				fmt.Sscanf(k, "r%d/L%d/S%d", &id.Roller, &id.Layer, &id.Slot)
				trays = append(trays, id)
			}
		}
		tb.fs.MV = mv.New(tb.env, tb.mvS, mv.DefaultOpCost)
		tb.fs.Cat = image.NewCatalog()
		if err := tb.fs.RecoverNamespace(p, trays); err != nil {
			t.Fatalf("RecoverNamespace: %v", err)
		}
		for name, data := range files {
			got, err := tb.fs.ReadFile(p, name)
			if err != nil {
				t.Errorf("read %s after recovery: %v", name, err)
				continue
			}
			if !bytes.Equal(got, data) {
				t.Errorf("%s recovered with wrong content", name)
			}
		}
	})
}

func TestStopRejectsNewWork(t *testing.T) {
	tb := newBed(t, nil)
	tb.run(t, func(p *sim.Proc) {
		tb.fs.Stop()
		if err := tb.fs.WriteFile(p, "/x", []byte("y")); !errors.Is(err, ErrStopped) {
			t.Errorf("write after stop: %v", err)
		}
		if _, err := tb.fs.OpenFile(p, "/x"); !errors.Is(err, ErrStopped) {
			t.Errorf("open after stop: %v", err)
		}
		if _, err := tb.fs.OpenFileVersion(p, "/x", 1); !errors.Is(err, ErrStopped) {
			t.Errorf("open of a version after stop: %v", err)
		}
	})
}
