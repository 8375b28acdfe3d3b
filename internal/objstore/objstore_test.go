package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
)

// newStore builds a small OLFS + object store.
func newStore(t *testing.T) (*sim.Env, *Store, *olfs.FS) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	lib, err := rack.New(env, rack.Config{Rollers: 1, DriveGroups: 2, Media: optical.Media25, PopulateAll: true})
	if err != nil {
		t.Fatal(err)
	}
	mvStore := blockdev.New(env, 1<<30, blockdev.SSDProfile())
	hdds := make([]blockdev.Device, 7)
	for i := range hdds {
		hdds[i] = blockdev.New(env, 32<<20, blockdev.HDDProfile())
	}
	arr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := olfs.New(env, olfs.Config{
		DataDiscs: 2, ParityDiscs: 1, AutoBurn: false,
		BucketBytes: 2 << 20, BurnStagger: time.Second,
	}, lib, mvStore, pagecache.New(env, arr, pagecache.Ext4Rates()))
	if err != nil {
		t.Fatal(err)
	}
	return env, New(fs), fs
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestPutGetHead(t *testing.T) {
	env, st, _ := newStore(t)
	payload := bytes.Repeat([]byte("object data "), 1000)
	inSim(t, env, func(p *sim.Proc) {
		if err := st.CreateBucket(p, "archive"); err != nil {
			t.Fatalf("CreateBucket: %v", err)
		}
		obj, err := st.Put(p, "archive", "2016/results/run-1.csv", payload,
			map[string]string{"owner": "lab7", "tier": "cold"})
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if obj.Size != int64(len(payload)) || obj.Version != 1 {
			t.Errorf("obj = %+v", obj)
		}
		got, meta, err := st.Get(p, "archive", "2016/results/run-1.csv")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload mismatch")
		}
		if meta.Meta["owner"] != "lab7" {
			t.Errorf("meta = %+v", meta.Meta)
		}
		hd, err := st.Head(p, "archive", "2016/results/run-1.csv")
		if err != nil || hd.ETag != obj.ETag {
			t.Errorf("Head = %+v, %v", hd, err)
		}
	})
}

func TestVersionedObjects(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "b")
		v1 := []byte("first version")
		v2 := []byte("second version, longer")
		if _, err := st.Put(p, "b", "doc", v1, nil); err != nil {
			t.Fatal(err)
		}
		obj, err := st.Put(p, "b", "doc", v2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Version != 2 {
			t.Errorf("version = %d, want 2", obj.Version)
		}
		got, _, err := st.Get(p, "b", "doc")
		if err != nil || !bytes.Equal(got, v2) {
			t.Errorf("current = %q err %v", got, err)
		}
		old, err := st.GetVersion(p, "b", "doc", 1)
		if err != nil || !bytes.Equal(old, v1) {
			t.Errorf("v1 = %q err %v", old, err)
		}
	})
}

func TestListWithPrefix(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "logs")
		for _, k := range []string{"2016/01/a.log", "2016/01/b.log", "2016/02/c.log", "2017/01/d.log"} {
			if _, err := st.Put(p, "logs", k, []byte(k), nil); err != nil {
				t.Fatalf("Put %s: %v", k, err)
			}
		}
		objs, err := st.List(p, "logs", "2016/")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(objs) != 3 {
			t.Fatalf("List(2016/) = %d objects", len(objs))
		}
		if objs[0].Key != "2016/01/a.log" || objs[2].Key != "2016/02/c.log" {
			t.Errorf("keys = %v %v %v", objs[0].Key, objs[1].Key, objs[2].Key)
		}
		all, _ := st.List(p, "logs", "")
		if len(all) != 4 {
			t.Errorf("List(all) = %d", len(all))
		}
	})
}

func TestDelete(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "b")
		_, _ = st.Put(p, "b", "k", []byte("x"), nil)
		if err := st.Delete(p, "b", "k"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := st.Head(p, "b", "k"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("Head after delete: %v", err)
		}
		if err := st.Delete(p, "b", "k"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("double delete: %v", err)
		}
	})
}

func TestBucketSemantics(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		if _, err := st.Put(p, "missing", "k", []byte("x"), nil); !errors.Is(err, ErrNoSuchBucket) {
			t.Errorf("put to missing bucket: %v", err)
		}
		if err := st.CreateBucket(p, "b"); err != nil {
			t.Fatal(err)
		}
		if err := st.CreateBucket(p, "b"); !errors.Is(err, ErrBucketExists) {
			t.Errorf("duplicate bucket: %v", err)
		}
		bks, err := st.ListBuckets(p)
		if err != nil || len(bks) != 1 || bks[0] != "b" {
			t.Errorf("ListBuckets = %v, %v", bks, err)
		}
		for _, bad := range []string{"", "a/b", "x%y", "dots.are.bad"} {
			if err := st.CreateBucket(p, bad); !errors.Is(err, ErrBadName) {
				t.Errorf("bucket %q accepted: %v", bad, err)
			}
		}
	})
}

func TestKeyEscaping(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "b")
		weird := "reports/Q1 2016/final (v2).pdf"
		if _, err := st.Put(p, "b", weird, []byte("pdf"), nil); err != nil {
			t.Fatalf("Put weird key: %v", err)
		}
		got, _, err := st.Get(p, "b", weird)
		if err != nil || string(got) != "pdf" {
			t.Errorf("Get weird key: %q %v", got, err)
		}
		objs, _ := st.List(p, "b", "reports/")
		if len(objs) != 1 || objs[0].Key != weird {
			t.Errorf("List round-trips key as %q", objs[0].Key)
		}
		for _, bad := range []string{"", "/abs", "a//b", "a/../b", "."} {
			if _, err := st.Put(p, "b", bad, []byte("x"), nil); !errors.Is(err, ErrBadName) {
				t.Errorf("key %q accepted: %v", bad, err)
			}
		}
	})
}

func TestObjectsSurviveBurnAndFetch(t *testing.T) {
	env, st, fs := newStore(t)
	payload := bytes.Repeat([]byte{0xE7}, 600<<10)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "cold")
		if _, err := st.Put(p, "cold", "glacier/core-42.dat", payload, nil); err != nil {
			t.Fatal(err)
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		got, obj, err := st.Get(p, "cold", "glacier/core-42.dat")
		if err != nil {
			t.Fatalf("Get after burn: %v", err)
		}
		if !bytes.Equal(got, payload) || obj.Size != int64(len(payload)) {
			t.Error("object corrupted by burn cycle")
		}
	})
}

func TestETagDetectsTamper(t *testing.T) {
	env, st, fs := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "b")
		if _, err := st.Put(p, "b", "k", []byte("original"), nil); err != nil {
			t.Fatal(err)
		}
		// Tamper via the POSIX view (bypassing the object API).
		if err := fs.WriteFile(p, Root+"/b/k", []byte("tampered")); err != nil {
			t.Fatal(err)
		}
		_, _, err := st.Get(p, "b", "k")
		if err == nil {
			t.Error("ETag mismatch not detected")
		}
	})
}

func TestManyObjects(t *testing.T) {
	env, st, _ := newStore(t)
	inSim(t, env, func(p *sim.Proc) {
		_ = st.CreateBucket(p, "bulk")
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("dir%d/obj-%03d", i%4, i)
			if _, err := st.Put(p, "bulk", key, pat(512, byte(i)), nil); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		objs, err := st.List(p, "bulk", "")
		if err != nil || len(objs) != 60 {
			t.Fatalf("List = %d, %v", len(objs), err)
		}
		for i := 1; i < len(objs); i++ {
			if objs[i].Key <= objs[i-1].Key {
				t.Fatal("list not sorted")
			}
		}
	})
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*11 + seed
	}
	return b
}
