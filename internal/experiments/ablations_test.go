package experiments

import (
	"testing"
	"time"

	"ros/internal/olfs"
)

func TestAblationTieredBuffer(t *testing.T) {
	r, err := AblationTieredBuffer()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	buf := metric(r, "buffered write ack")
	syn := metric(r, "synchronous-burn write ack")
	if buf.Measured > 0.2 {
		t.Errorf("buffered ack = %.3fs, want well under a second", buf.Measured)
	}
	if syn.Measured < 300 {
		t.Errorf("synchronous ack = %.0fs, want minutes", syn.Measured)
	}
	if syn.Measured/buf.Measured < 1000 {
		t.Errorf("buffering speedup only %.0fx", syn.Measured/buf.Measured)
	}
}

func TestAblationFuseChunk(t *testing.T) {
	r, err := AblationFuseChunk()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	speedup := metric(r, "big_writes speedup")
	if speedup.Measured < 2 {
		t.Errorf("big_writes speedup = %.2fx, want >= 2x", speedup.Measured)
	}
}

func TestAblationReadPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("burns multiple arrays")
	}
	r, err := AblationReadPolicy()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	wait := metric(r, "read latency, wait policy")
	intr := metric(r, "read latency, interrupt policy")
	if intr.Measured >= wait.Measured {
		t.Errorf("interrupt (%.0fs) not faster than wait (%.0fs)", intr.Measured, wait.Measured)
	}
	if res := metric(r, "interrupted burns resumed in append mode"); res.Measured < 1 {
		t.Error("no burn resume recorded")
	}
}

// TestInterruptReachesDiscsNotYetBurning: a read 10 s into a 2+1 burn with
// the default 43 s stagger finds one disc burning and two still waiting to
// start. The interrupt must stop those two as well; it used to reach only
// the burning disc, so they started later, burned whole discs and the read
// waited out the entire burn as if the policy were WaitForBurn.
func TestInterruptReachesDiscsNotYetBurning(t *testing.T) {
	if testing.Short() {
		t.Skip("burns multiple arrays")
	}
	wait, _, err := readDuringBurn(olfs.WaitForBurn, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	intr, resumes, err := readDuringBurn(olfs.InterruptBurn, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("read latency: wait %.1f s, interrupt %.1f s; %d resumes", wait, intr, resumes)
	if intr > wait/3 {
		t.Errorf("interrupt policy read took %.1f s, wait policy %.1f s: the interrupt missed the discs not yet burning", intr, wait)
	}
	if resumes != 1 {
		t.Errorf("olfs.burn_resumes = %d, want 1", resumes)
	}
}

func TestAblationForepart(t *testing.T) {
	r, err := AblationForepart()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	with := metric(r, "first byte with forepart")
	without := metric(r, "first byte without forepart")
	if with.Measured > 0.05 {
		t.Errorf("forepart first byte = %.4fs, want ms-scale", with.Measured)
	}
	if without.Measured < 60 {
		t.Errorf("no-forepart first byte = %.1fs, want mechanical-fetch scale", without.Measured)
	}
}

func TestAblationReadCache(t *testing.T) {
	r, err := AblationReadCache()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	hit := metric(r, "re-read with RC (buffer hit)")
	miss := metric(r, "re-read without RC (mechanical fetch)")
	if hit.Measured > 0.5 || miss.Measured < 60 {
		t.Errorf("RC hit %.3fs vs miss %.1fs — cache not effective", hit.Measured, miss.Measured)
	}
}

func TestAblationUniquePath(t *testing.T) {
	r, err := AblationUniquePath()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	over := metric(r, "directory redundancy overhead")
	if over.Measured <= 0 || over.Measured > 60 {
		t.Errorf("unique-path overhead = %.1f%%, want small positive", over.Measured)
	}
}

func TestAblationOverlapScheduling(t *testing.T) {
	r, err := AblationOverlapScheduling()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	saving := metric(r, "saving")
	if saving.Measured < 1 || saving.Measured > 10 {
		t.Errorf("overlap saving = %.1fs, want 1-10s", saving.Measured)
	}
}

func TestAblationStreamIsolation(t *testing.T) {
	r, err := AblationStreamIsolation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	slow := metric(r, "interference slowdown")
	if slow.Measured <= 1.0 {
		t.Errorf("shared-volume slowdown = %.2fx, want > 1x", slow.Measured)
	}
}

func TestAblationDirectWrite(t *testing.T) {
	r, err := AblationDirectWrite()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	nas := metric(r, "NAS stack ingest throughput")
	direct := metric(r, "direct-writing ingest throughput")
	if direct.Measured < 2*nas.Measured {
		t.Errorf("direct mode (%.0f MB/s) not at least 2x NAS (%.0f MB/s)", direct.Measured, nas.Measured)
	}
	if direct.Measured < 900 || direct.Measured > 1200 {
		t.Errorf("direct throughput = %.0f MB/s, want near wire speed", direct.Measured)
	}
}

func TestSustainedIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("12 virtual hours x 3 rates")
	}
	r, err := SustainedIngest()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	g200 := metric(r, "backlog growth @200MB/s (2nd half)")
	g700 := metric(r, "backlog growth @700MB/s (2nd half)")
	if g200.Measured > 5 {
		t.Errorf("200MB/s backlog still growing (%+.0f images) — should be sustainable", g200.Measured)
	}
	if g700.Measured < 10 {
		t.Errorf("700MB/s backlog growth = %+.0f images — should be unsustainable", g700.Measured)
	}
}
