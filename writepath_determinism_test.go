package ros

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWritepathDeterminism: the write path is part of the deterministic
// simulation contract — two systems built from the same options and driven
// by the same workload must produce byte-identical writepath.* telemetry
// and shed exactly the same set of writes. A divergence here means wall
// clock, map iteration order, or goroutine scheduling leaked into the
// admission or batching logic.
func TestWritepathDeterminism(t *testing.T) {
	type outcome struct {
		series string // writepath.* telemetry, JSON
		shed   string // every shed write, in per-worker issue order
		acked  int
	}
	runOnce := func() outcome {
		opts := soakOptions()
		opts.SampleEvery = 5 * time.Minute
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		outs, _, err := driveOverload(sys, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		var shed strings.Builder
		acked := 0
		for _, o := range outs {
			acked += len(o.ackedPaths)
			for _, path := range o.shed {
				shed.WriteString(path)
				shed.WriteByte('\n')
			}
		}
		var series bytes.Buffer
		for _, sd := range sys.Telemetry.Dump(0) {
			if !strings.HasPrefix(sd.Name, "writepath.") {
				continue
			}
			fmt.Fprintf(&series, "%s/%s", sd.Name, sd.Kind)
			for _, pt := range sd.Points {
				fmt.Fprintf(&series, " %d:%g", pt.T, pt.V)
			}
			series.WriteByte('\n')
		}
		return outcome{series: series.String(), shed: shed.String(), acked: acked}
	}

	a, b := runOnce(), runOnce()
	if a.acked == 0 || len(a.shed) == 0 {
		t.Fatalf("workload not exercising the write path: %d acked, shed set %q", a.acked, a.shed)
	}
	if a.acked != b.acked {
		t.Errorf("acked count diverged: %d vs %d", a.acked, b.acked)
	}
	if a.shed != b.shed {
		t.Errorf("shed sets diverged:\nrun A:\n%srun B:\n%s", a.shed, b.shed)
	}
	if a.series != b.series {
		t.Errorf("writepath.* telemetry diverged:\nrun A:\n%s\nrun B:\n%s", a.series, b.series)
	}
	if !strings.Contains(a.series, "writepath.") {
		t.Error("no writepath.* series sampled")
	}
}
