package olfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ros/internal/mv"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// oracleFile is the reference model of one file: its full version history.
type oracleFile struct {
	versions [][]byte // index 0 = version 1
}

// TestOracleRandomWorkload drives OLFS with a long randomized operation
// sequence — writes, updates, reads, syncs, burns, historical reads, unlinks
// and archival-class writes — and checks every observable result against a
// simple in-memory reference model. The burn pipeline, bucket splitting,
// version rings and the read tier ladder are all in play.
func TestOracleRandomWorkload(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracle(t, seed, 250)
		})
	}
}

func runOracle(t *testing.T, seed int64, steps int) {
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = true
		c.BurnStagger = time.Second
	})
	rng := rand.New(rand.NewSource(seed))
	model := map[string]*oracleFile{}
	paths := func() []string {
		out := make([]string, 0, len(model))
		for p := range model {
			out = append(out, p)
		}
		// Deterministic order for reproducibility.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	newPath := func() string {
		return fmt.Sprintf("/oracle/d%d/f%03d", rng.Intn(5), rng.Intn(1000))
	}
	payload := func() []byte {
		n := rng.Intn(200*1024) + 1
		b := make([]byte, n)
		seedB := byte(rng.Intn(256))
		for i := range b {
			b[i] = byte(i)*13 + seedB
		}
		return b
	}

	tb.run(t, func(p *sim.Proc) {
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(100); {
			case op < 35: // write or update
				path := newPath()
				if len(model) > 0 && rng.Intn(2) == 0 {
					ps := paths()
					path = ps[rng.Intn(len(ps))]
				}
				data := payload()
				if err := tb.fs.WriteFile(p, path, data); err != nil {
					t.Fatalf("step %d write %s: %v", step, path, err)
				}
				of := model[path]
				if of == nil {
					of = &oracleFile{}
					model[path] = of
				}
				of.versions = append(of.versions, data)

			case op < 60: // read current and verify
				if len(model) == 0 {
					continue
				}
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				got, err := tb.fs.ReadFile(p, path)
				if err != nil {
					t.Fatalf("step %d read %s: %v", step, path, err)
				}
				want := model[path].versions[len(model[path].versions)-1]
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d read %s: got %d bytes, want %d (content mismatch)",
						step, path, len(got), len(want))
				}

			case op < 70: // read a historical version
				if len(model) == 0 {
					continue
				}
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				of := model[path]
				nv := len(of.versions)
				if nv < 2 {
					continue
				}
				// Pick a retained version (ring keeps the last 15).
				lo := 1
				if nv > mv.MaxVersionEntries {
					lo = nv - mv.MaxVersionEntries + 1
				}
				v := lo + rng.Intn(nv-lo+1)
				fr, err := tb.fs.OpenFileVersion(p, path, v)
				if err != nil {
					t.Fatalf("step %d open %s v%d (of %d): %v", step, path, v, nv, err)
				}
				want := of.versions[v-1]
				got := make([]byte, len(want)+10)
				n, err := fr.ReadAt(p, got, 0)
				if err != nil {
					t.Fatalf("step %d readat %s v%d: %v", step, path, v, err)
				}
				if n != len(want) || !bytes.Equal(got[:n], want) {
					t.Fatalf("step %d version %s v%d mismatch (%d vs %d bytes)",
						step, path, v, n, len(want))
				}

			case op < 78: // sync (seal bucket)
				if err := tb.fs.Sync(p); err != nil {
					t.Fatalf("step %d sync: %v", step, err)
				}

			case op < 84: // force a burn and wait for it
				c, err := tb.fs.FlushAndBurn(p)
				if err != nil {
					t.Fatalf("step %d flush: %v", step, err)
				}
				if _, err := c.Wait(p); err != nil {
					t.Fatalf("step %d burn: %v", step, err)
				}

			case op < 90: // archival-class write (direct-writing delivery, re-replication)
				path := newPath()
				for model[path] != nil {
					path = newPath()
				}
				data := payload()
				if err := tb.fs.WriteFileClass(p, path, data, writepath.Archival); err != nil {
					t.Fatalf("step %d archival write: %v", step, err)
				}
				model[path] = &oracleFile{versions: [][]byte{data}}

			case op < 95: // unlink
				if len(model) == 0 {
					continue
				}
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				if err := tb.fs.Unlink(p, path); err != nil {
					t.Fatalf("step %d unlink %s: %v", step, path, err)
				}
				delete(model, path)
				if _, err := tb.fs.OpenFile(p, path); err == nil {
					t.Fatalf("step %d: %s readable after unlink", step, path)
				}

			default: // stat + size check
				if len(model) == 0 {
					continue
				}
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				fi, err := tb.fs.Stat(p, path)
				if err != nil {
					t.Fatalf("step %d stat %s: %v", step, path, err)
				}
				of := model[path]
				want := of.versions[len(of.versions)-1]
				if fi.Size != int64(len(want)) {
					t.Fatalf("step %d stat %s: size %d, want %d", step, path, fi.Size, len(want))
				}
				if fi.Version != len(of.versions) {
					t.Fatalf("step %d stat %s: version %d, want %d", step, path, fi.Version, len(of.versions))
				}
			}
		}
		// Final sweep: every surviving file readable and correct.
		for _, path := range paths() {
			got, err := tb.fs.ReadFile(p, path)
			if err != nil {
				t.Fatalf("final read %s: %v", path, err)
			}
			want := model[path].versions[len(model[path].versions)-1]
			if !bytes.Equal(got, want) {
				t.Fatalf("final read %s: mismatch", path)
			}
		}
		// Drain any in-flight burns so the env quiesces cleanly.
		p.Sleep(4 * time.Hour)
	})
}

// TestOracleSurvivesCrashReopen extends the oracle with a checkpoint +
// crash + Reopen in the middle of the workload.
func TestOracleSurvivesCrashReopen(t *testing.T) {
	// The bed's backends (MV array, buffer) survive the "crash"; only the FS
	// instance is discarded and reopened.
	tb := newBed(t, func(c *Config) { c.AutoBurn = false })
	model := map[string][]byte{}
	tb.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 30; i++ {
			path := fmt.Sprintf("/cr/f%02d", i)
			data := make([]byte, rng.Intn(50*1024)+1)
			for j := range data {
				data[j] = byte(j*7 + i)
			}
			if err := tb.fs.WriteFile(p, path, data); err != nil {
				t.Fatalf("write: %v", err)
			}
			model[path] = data
		}
		c, err := tb.fs.FlushAndBurn(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(p); err != nil {
			t.Fatalf("burn: %v", err)
		}
		if err := tb.fs.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		tb.fs.Stop()
		// Crash: reopen from the same MV backend + buffer.
		fs2, err := Reopen(tb.env, p, tb.fs.Config(), tb.lib, tb.fs.mvStore, tb.buf)
		if err != nil {
			t.Fatalf("Reopen: %v", err)
		}
		for path, want := range model {
			got, err := fs2.ReadFile(p, path)
			if err != nil {
				t.Fatalf("read %s after reopen: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s corrupted across crash", path)
			}
		}
		// And the reopened instance accepts new work.
		if err := fs2.WriteFile(p, "/cr/new", []byte("post-crash")); err != nil {
			t.Fatalf("write after reopen: %v", err)
		}
		fs2.Stop()
	})
}
