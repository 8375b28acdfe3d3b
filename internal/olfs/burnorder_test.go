package olfs_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ros/internal/faultinject/testkit"
	"ros/internal/olfs"
	"ros/internal/sim"
)

var updateBurnOrder = flag.Bool("update-burn-order", false, "rewrite testdata/burn_order.txt from this pipeline")

const burnOrderPath = "testdata/burn_order.txt"

// burnOrderRun auto-burns three 2+1 sets on the two drive groups of the
// standard bed, so the third task queues behind a group claim, with one hard
// burn fault mid-track (tray Failed, fresh-tray retry) and one §4.8 interrupt
// (requeue, append-mode resume). It returns the event-sink stream as one
// "T<tab>Proc<tab>Kind<tab>Msg" line per event, then the span tree of every
// burn-class trace (parity, claim wait, eviction unload, load, per-disc burn,
// and the unload of a failed or interrupted run).
func burnOrderRun(t *testing.T) string {
	bed := testkit.New(t, testkit.Options{Faults: "optical.burn@g1-d01:once,after=200"})
	var b strings.Builder
	bed.Env.AddEventSink(func(ev sim.TraceEvent) {
		fmt.Fprintf(&b, "%d\t%s\t%s\t%s\n", int64(ev.T), ev.Proc, ev.Kind, ev.Msg)
	})
	bed.Run(t, func(p *sim.Proc) {
		interruptFirstBurn(bed) // group 0 loads first; the fault is on group 1
		for i := 0; i < 14; i++ {
			name := fmt.Sprintf("/arch/f%02d", i)
			if err := bed.FS.WriteFile(p, name, testkit.Pat(400*1024, byte(i+1))); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		if err := bed.FS.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	})
	fs := bed.FS
	fmt.Fprintf(&b, "end\tnow=%d tasks=%d interrupted=%d resumes=%d failed_trays=%d unburned=%d\n",
		int64(bed.Env.Now()), count(fs, "olfs.burn_tasks"), count(fs, "olfs.interrupted_burns"), count(fs, "olfs.burn_resumes"),
		failedTrays(bed), len(fs.Buckets.FilledUnburned()))
	for _, tr := range fs.Tracer().Traces() {
		if tr.Class == "burn" {
			b.WriteString(tr.Format())
		}
	}
	return b.String()
}

// TestBurnOrderGolden pins the burn pipeline's event order byte for byte. The
// stream was first recorded from the multi-set burn-group fork, which the one
// per-set pipeline reproduced exactly; it was re-recorded when a burned array
// began to stay in its drives until the next claimant of its group evicts it.
func TestBurnOrderGolden(t *testing.T) {
	got := burnOrderRun(t)
	if *updateBurnOrder {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(burnOrderPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(burnOrderPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("event %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stream length differs: got %d lines, want %d", len(gl), len(wl))
}

// TestBurnSetSize pins the one chunking rule of the burn pipeline: automatic
// burns take full sets of DataDiscs images (one image with SingleImage), a
// trailing partial set waits for FlushAndBurn, and every enqueued task counts
// once in each of the three task counters.
func TestBurnSetSize(t *testing.T) {
	const images = 5
	for _, tc := range []struct {
		name        string
		singleImage bool
		autoTasks   int // enqueued by the five seals
		trailing    int // images left for FlushAndBurn
		perTray     int // data + parity images on a full-set tray
	}{
		{"per-set", false, 2, 1, 3},
		{"single-image", true, 5, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := testkit.New(t, testkit.Options{Config: func(c *olfs.Config) {
				c.Write.Batch.SingleImage = tc.singleImage
			}})
			bed.Run(t, func(p *sim.Proc) {
				for i := 0; i < images; i++ {
					if err := bed.FS.WriteFile(p, fmt.Sprintf("/set/f%d", i), testkit.Pat(64*1024, byte(i+1))); err != nil {
						t.Fatalf("WriteFile: %v", err)
					}
					if err := bed.FS.Sync(p); err != nil { // seals one image
						t.Fatalf("Sync: %v", err)
					}
				}
				if got := int(count(bed.FS, "olfs.burn_tasks")); got != tc.autoTasks {
					t.Errorf("tasks enqueued by %d seals = %d, want %d", images, got, tc.autoTasks)
				}
				if got := len(bed.FS.Buckets.FilledUnburned()); got != tc.trailing {
					t.Errorf("images waiting for FlushAndBurn = %d, want %d", got, tc.trailing)
				}
				c, err := bed.FS.FlushAndBurn(p)
				if err != nil {
					t.Fatalf("FlushAndBurn: %v", err)
				}
				if _, err := c.Wait(p); err != nil {
					t.Fatalf("trailing burn: %v", err)
				}
			})
			tasks := tc.autoTasks
			if tc.trailing > 0 {
				tasks++
			}
			for _, name := range []string{"olfs.burn_tasks", "writepath.burn_sets", "writepath.burn_groups"} {
				if got := int(count(bed.FS, name)); got != tasks {
					t.Errorf("%s = %d, want %d", name, got, tasks)
				}
			}
			// Every task burned its own tray; all but the trailing partial
			// set carry a full set's images.
			perTray := map[string]int{}
			for _, addr := range bed.FS.Cat.DIL {
				perTray[addr.Tray.String()]++
			}
			full := 0
			for _, n := range perTray {
				if n == tc.perTray {
					full++
				}
			}
			if len(perTray) != tasks || full != tc.autoTasks {
				t.Errorf("burned trays = %d (%d holding %d images), want %d (%d)",
					len(perTray), full, tc.perTray, tasks, tc.autoTasks)
			}
		})
	}
}
