package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ros/internal/blockdev"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
)

func newFS(t *testing.T) (*sim.Env, *olfs.FS) {
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
	return env, fs
}

func inSim(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Go("test", fn)
	env.Run()
	if env.Deadlocked() {
		t.Fatal("deadlocked")
	}
}

func TestPutGetDelete(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, err := Open(p, fs, "users")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(p, "alice", []byte("admin")); err != nil {
			t.Fatal(err)
		}
		v, err := db.Get(p, "alice")
		if err != nil || string(v) != "admin" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if err := db.Delete(p, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(p, "alice"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("after delete: %v", err)
		}
		if _, err := db.Get(p, "never"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestFlushAndReopen(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "d")
		for i := 0; i < 100; i++ {
			if err := db.Put(p, fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(p); err != nil {
			t.Fatal(err)
		}
		// Reopen: data comes back from segments through OLFS.
		db2, err := Open(p, fs, "d")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			v, err := db2.Get(p, fmt.Sprintf("k%03d", i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%03d = %q, %v", i, v, err)
			}
		}
	})
}

func TestSegmentShadowingAndTombstones(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "d")
		_ = db.Put(p, "k", []byte("v1"))
		if err := db.Flush(p); err != nil {
			t.Fatal(err)
		}
		_ = db.Put(p, "k", []byte("v2"))
		if err := db.Flush(p); err != nil {
			t.Fatal(err)
		}
		if v, _ := db.Get(p, "k"); string(v) != "v2" {
			t.Fatalf("newest segment should win, got %q", v)
		}
		_ = db.Delete(p, "k")
		if err := db.Flush(p); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(p, "k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("tombstone in newest segment should hide: %v", err)
		}
		if db.Segments() != 3 {
			t.Fatalf("segments = %d, want 3", db.Segments())
		}
	})
}

func TestScanWithPrefix(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "d")
		_ = db.Put(p, "user/1", []byte("a"))
		_ = db.Put(p, "user/2", []byte("b"))
		_ = db.Flush(p)
		_ = db.Put(p, "user/2", []byte("b2")) // shadow in memtable
		_ = db.Put(p, "group/1", []byte("g"))
		_ = db.Delete(p, "user/1")
		got, err := db.Scan(p, "user/")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Key != "user/2" || string(got[0].Value) != "b2" {
			t.Fatalf("Scan = %+v", got)
		}
		all, _ := db.Scan(p, "")
		if len(all) != 2 {
			t.Fatalf("Scan(all) = %d entries", len(all))
		}
	})
}

func TestCompaction(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "d")
		for round := 0; round < 4; round++ {
			for i := 0; i < 50; i++ {
				_ = db.Put(p, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("r%d-%d", round, i)))
			}
			_ = db.Flush(p)
		}
		for i := 0; i < 25; i++ {
			_ = db.Delete(p, fmt.Sprintf("k%02d", i))
		}
		if err := db.Compact(p); err != nil {
			t.Fatal(err)
		}
		if db.Segments() != 1 {
			t.Fatalf("segments after compact = %d", db.Segments())
		}
		for i := 0; i < 50; i++ {
			v, err := db.Get(p, fmt.Sprintf("k%02d", i))
			if i < 25 {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted k%02d still present: %q", i, v)
				}
			} else {
				if err != nil || string(v) != fmt.Sprintf("r3-%d", i) {
					t.Fatalf("k%02d = %q, %v", i, v, err)
				}
			}
		}
		// Compaction survives reopen.
		db2, _ := Open(p, fs, "d")
		if v, err := db2.Get(p, "k40"); err != nil || string(v) != "r3-40" {
			t.Fatalf("after reopen: %q, %v", v, err)
		}
	})
}

func TestAutoFlushOnThreshold(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "d")
		db.SetFlushThreshold(10 * 1024)
		for i := 0; i < 40; i++ {
			_ = db.Put(p, fmt.Sprintf("k%03d", i), bytes.Repeat([]byte{byte(i)}, 1024))
		}
		if db.Flushes == 0 {
			t.Fatal("threshold flush never triggered")
		}
		if db.MemBytes() >= 10*1024 {
			t.Fatalf("memtable still %d bytes", db.MemBytes())
		}
	})
}

func TestKVSurvivesBurn(t *testing.T) {
	env, fs := newFS(t)
	inSim(t, env, func(p *sim.Proc) {
		db, _ := Open(p, fs, "cold")
		for i := 0; i < 200; i++ {
			_ = db.Put(p, fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, 700))
		}
		if err := db.Flush(p); err != nil {
			t.Fatal(err)
		}
		c, err := fs.FlushAndBurn(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		for _, i := range []int{0, 57, 123, 199} {
			v, err := db.Get(p, fmt.Sprintf("key-%04d", i))
			if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 700)) {
				t.Fatalf("key-%04d after burn: %v", i, err)
			}
		}
	})
}

func TestBatchingBeatsFilePerKey(t *testing.T) {
	// The §4.5 worst case: sub-2KB files each cost >= 4 KB of bucket space
	// (2 KB entry + 2 KB data). KV batching packs them densely.
	env, fs := newFS(t)
	const n = 500
	const valSize = 200
	inSim(t, env, func(p *sim.Proc) {
		before := usedBucketBytes(fs)
		db, _ := Open(p, fs, "batched")
		for i := 0; i < n; i++ {
			_ = db.Put(p, fmt.Sprintf("m/%04d", i), bytes.Repeat([]byte{1}, valSize))
		}
		_ = db.Flush(p)
		kvBytes := usedBucketBytes(fs) - before

		before = usedBucketBytes(fs)
		for i := 0; i < n; i++ {
			if err := fs.WriteFile(p, fmt.Sprintf("/tiny/%04d", i), bytes.Repeat([]byte{1}, valSize)); err != nil {
				t.Fatal(err)
			}
		}
		fileBytes := usedBucketBytes(fs) - before
		if fileBytes < int64(n)*4096 {
			t.Fatalf("file-per-key consumed %d, expected >= %d (4KB each)", fileBytes, n*4096)
		}
		if kvBytes*4 > fileBytes {
			t.Fatalf("KV batching (%d B) not at least 4x denser than files (%d B)", kvBytes, fileBytes)
		}
	})
}

// usedBucketBytes sums the buffer space consumed by non-free buckets.
func usedBucketBytes(fs *olfs.FS) int64 {
	var sum int64
	for _, b := range fs.Buckets.Slots() {
		sum += b.Used()
	}
	return sum
}

// Property: any random op sequence matches a map oracle, across flushes and
// a compaction.
func TestPropertyMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		env, fs := newFS(t)
		ok := true
		inSim(t, env, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			db, err := Open(p, fs, "prop")
			if err != nil {
				ok = false
				return
			}
			db.SetFlushThreshold(2 * 1024)
			oracle := map[string]string{}
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(30)) }
			for step := 0; step < 150; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					k := key()
					v := fmt.Sprintf("v%d", rng.Intn(1e6))
					if err := db.Put(p, k, []byte(v)); err != nil {
						ok = false
						return
					}
					oracle[k] = v
				case 5, 6:
					k := key()
					if err := db.Delete(p, k); err != nil {
						ok = false
						return
					}
					delete(oracle, k)
				case 7:
					if err := db.Flush(p); err != nil {
						ok = false
						return
					}
				case 8:
					if step%50 == 25 {
						if err := db.Compact(p); err != nil {
							ok = false
							return
						}
					}
				default:
					k := key()
					v, err := db.Get(p, k)
					want, exists := oracle[k]
					if exists {
						if err != nil || string(v) != want {
							ok = false
							return
						}
					} else if !errors.Is(err, ErrNotFound) {
						ok = false
						return
					}
				}
			}
			// Final scan equals the oracle.
			got, err := db.Scan(p, "")
			if err != nil || len(got) != len(oracle) {
				ok = false
				return
			}
			for _, e := range got {
				if oracle[e.Key] != string(e.Value) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
