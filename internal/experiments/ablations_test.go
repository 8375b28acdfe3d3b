package experiments

import (
	"strings"
	"testing"
	"time"
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
	r, err := AblationReadDuringBurn()
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
	for _, bed := range []string{"1 group(s), 2+1: ", "2 group(s), 2+1: ", "1 group(s), 11+1: ", "2 group(s), 11+1: "} {
		if w, i := metric(r, bed+"worst read, wait"), metric(r, bed+"worst read, interrupt"); i.Measured >= w.Measured/2 {
			t.Errorf("%sworst read %.1f s under interrupt, %.1f s waiting", bed, i.Measured, w.Measured)
		}
	}
}

// TestReadDuringBurnSweep: on one group at 2+1 with the default 43 s
// stagger, no read waits out the burn, wherever in it the read arrives.
// Before starvation was re-checked when a burn task's discs are about to
// start, a read that arrived during the blank-tray load found nothing to
// interrupt and waited for the whole burn (1,071.8 s at arrival 0). The
// floor is 304 s: the arm finishes the swap under way, unloads the blank
// tray and loads the read's array.
func TestReadDuringBurnSweep(t *testing.T) {
	ms, err := sweepReadDuringBurn(burnRead{groups: 1, data: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[strings.TrimPrefix(m.Name, "1 group(s), 2+1: ")] = m.Measured
		t.Logf("%s: %.1f s", m.Name, m.Measured)
	}
	if w := got["worst read, interrupt"]; w > 335 {
		t.Errorf("worst read during a burn took %.1f s, want <= 335 s", w)
	}
	if w := got["worst read, wait"]; w < 1000 {
		t.Errorf("worst read while waiting out the burn took %.1f s, want the whole burn (> 1000 s)", w)
	}
	if d := got["burn delay per interrupt"]; d <= 0 {
		t.Errorf("burn delay per interrupt = %.1f s, want > 0", d)
	}
}

// TestReadDuringTrayLoadInterruptsBurn: a read that queues while the burn
// task is still loading its blank tray (one group, 2+1, default stagger)
// finds no disc to interrupt. Starvation is checked again once the tray is
// in, so the arm finishes the swap under way, puts the blank tray back and
// loads the read's array: about 150 s after the discs would have started.
// The read used to wait out the whole burn (1,066.8 s at 5 s), and a disc
// that saw the interrupt before its start stagger would still sleep the
// stagger out (86 s more for disc 2).
func TestReadDuringTrayLoadInterruptsBurn(t *testing.T) {
	c := burnRead{groups: 1, data: 2}
	life, err := readDuringBurn(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{0, 5 * time.Second, time.Minute} {
		if at >= life.burning {
			t.Fatalf("read at %v is not in the tray load, which ends at %v", at, life.burning)
		}
		tr, err := readDuringBurn(c, at)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("read at %v: %v, %d resumes", at, tr.read, tr.resumes)
		if limit := life.burning - at + 160*time.Second; tr.read > limit {
			t.Errorf("read at %v took %v, want <= %v", at, tr.read, limit)
		}
		if tr.resumes != 1 {
			t.Errorf("read at %v: olfs.burn_resumes = %d, want 1", at, tr.resumes)
		}
	}
}

// TestOneReadInterruptsOneBurn: on two groups, a read that arrives as both
// burn tasks load their blank trays starves twice, once as each task's
// discs are about to start. The first check interrupts one burn; while that
// run still holds its group, the group is about to come free, so the second
// must not interrupt the other burn too.
func TestOneReadInterruptsOneBurn(t *testing.T) {
	tr, err := readDuringBurn(burnRead{groups: 2, data: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("read: %v, %d resumes", tr.read, tr.resumes)
	if tr.resumes != 1 {
		t.Errorf("olfs.burn_resumes = %d, want 1", tr.resumes)
	}
}

// TestInterruptReachesDiscsNotYetBurning: a read 10 s into a 2+1 burn with
// the default 43 s stagger finds one disc burning and two still waiting to
// start. The interrupt must stop those two as well; it used to reach only
// the burning disc, so they started later, burned whole discs and the read
// waited out the entire burn as if it had never interrupted it.
func TestInterruptReachesDiscsNotYetBurning(t *testing.T) {
	if testing.Short() {
		t.Skip("burns multiple arrays")
	}
	c := burnRead{groups: 1, data: 2}
	life, err := readDuringBurn(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	at := life.burning + 10*time.Second
	intr, err := readDuringBurn(c, at)
	if err != nil {
		t.Fatal(err)
	}
	c.wait = true
	wait, err := readDuringBurn(c, at)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("read latency: wait %v, interrupt %v; %d resumes", wait.read, intr.read, intr.resumes)
	if intr.read > wait.read/3 {
		t.Errorf("interrupted read took %v, waiting read %v: the interrupt missed the discs not yet burning", intr.read, wait.read)
	}
	if intr.resumes != 1 {
		t.Errorf("olfs.burn_resumes = %d, want 1", intr.resumes)
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
