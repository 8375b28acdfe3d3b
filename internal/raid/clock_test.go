package raid

import (
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/clock-*.txt from this tree's member model")

// arrayStream runs a seeded op stream on an array of n disks with profile
// prof and returns its transcript: every op's bytes, end clock and error, and
// every member's counters after each round. Three processes run each round
// concurrently, each a few reads, writes and page-cache flushes (WriteFrom)
// of up to four stripes, a third of them chunk-aligned, with think times that
// leave some member accesses queued and others arriving at the same instant.
// Member i's per-op overhead is the profile's plus a distinct prime number of
// nanoseconds, so that accesses on different members do not end at the same
// nanosecond: the two models resume fan-outs that end together in different
// orders (DESIGN §6).
//
// A clean stream has no faults, and its processes share the first 3 MB of
// the array. A degraded one is a clean stream on an array that has lost a
// member before it starts, so reads and writes take the degraded paths. A
// faulty one fails, repairs and corrupts members between rounds, within what
// the level corrects except that a RAID-5 array now and then loses a second
// member. A read that fails on a busy member ends at the very nanosecond the
// access before it ends, so ties are the rule there, and a faulty stream's
// transcript leaves out the clocks. Its processes keep to stripes of their
// own, whose bytes and parity no interleaving changes.
func arrayStream(seed int64, kind string, level Level, n int, prof blockdev.Profile) []string {
	faulty := kind == "faulty"
	const procs, rounds, su = 3, 10, 16 << 10
	env := sim.NewEnv()
	defer env.Close()
	disks := make([]*blockdev.Disk, n)
	devs := make([]blockdev.Device, n)
	for i := range disks {
		pr := prof
		pr.PerOpOverhead += time.Duration([...]int{1009, 2011, 3019, 4021, 5023, 6029, 7027}[i])
		disks[i] = blockdev.New(env, 4<<20, pr)
		devs[i] = disks[i]
	}
	a, err := New(env, level, devs, su)
	if err != nil {
		panic(err)
	}
	stripe := su * a.dataPerStripe()
	region := 1 << 20 / stripe * stripe
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	faults := rand.New(rand.NewSource(seed))
	failed := 0
	if kind == "degraded" {
		failed++
		disks[seed%int64(n)].Fail()
		logf("fail d%d", seed%int64(n))
	}
	env.Go("driver", func(p *sim.Proc) {
		for round := 0; round < rounds; round++ {
			var lines [procs][]string // each process's, so that completion order is not compared
			p.Fork("stream", procs, func(sp *sim.Proc, i int) error {
				rng := rand.New(rand.NewSource(seed*1000 + int64(round*procs+i)))
				base, span := int64(i*region), region
				if !faulty {
					base, span = 0, procs*region
				}
				var cache chunk.Store // this process's page cache
				for m := 1 + rng.Intn(4); m > 0; m-- {
					sp.Sleep(time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(20000)) * time.Microsecond)
					size := 1 + rng.Intn(4*stripe)
					off := base + int64(rng.Intn(span-size))
					if rng.Intn(3) == 0 {
						off -= off % su
					}
					op := [...]string{"read", "write", "flush"}[rng.Intn(3)]
					buf := make([]byte, size)
					var err error
					switch op {
					case "read":
						err = a.ReadAt(sp, buf, off)
					case "write":
						rng.Read(buf)
						err = a.WriteAt(sp, buf, off)
					case "flush":
						rng.Read(buf)
						cache.WriteAt(buf, off)
						err = a.WriteFrom(sp, &cache, off, int64(size))
					}
					end := fmt.Sprint(sp.Now())
					if faulty {
						end = "-"
					}
					lines[i] = append(lines[i], fmt.Sprintf("r%d p%d %s %d+%d: end %s err %v sum %08x", round, i, op, off, size, end, err, crc32.ChecksumIEEE(buf)))
				}
				return nil
			})
			for _, l := range lines {
				out = append(out, l...)
			}
			for i, d := range disks {
				logf("r%d d%d: read %d wrote %d ops %d", round, i, d.BytesRead, d.BytesWritten, d.Ops)
			}
			if !faulty {
				continue
			}
			// Faults land between rounds, while no access is queued.
			d, off := faults.Intn(n), int64(faults.Intn(procs*region/a.dataPerStripe()))
			switch faults.Intn(6) {
			case 0:
				if !disks[d].Failed() && (failed == 0 || failed == 1 && level == RAID5 && faults.Intn(3) == 0) {
					failed++
					disks[d].Fail()
					logf("fail d%d", d)
				}
			case 1:
				for i, d := range disks {
					if d.Failed() {
						failed--
						d.Repair()
						logf("repair d%d", i)
						break
					}
				}
			case 2, 3:
				for range 8 {
					disks[d].CorruptSector(off)
					logf("corrupt d%d %d", d, off&^4095)
					off = int64(faults.Intn(procs * region / a.dataPerStripe()))
				}
			}
		}
	})
	env.Run()
	return out
}

// TestArrayClockMatchesResourceModel: a RAID-5 of seven HDDs and a RAID-1 of
// two SSDs, whose members are clocks and whose fan-outs sleep once, serve
// seeded multi-process op streams exactly as when every member I/O was a
// Fork child queueing on its disk's sim.Resource: every op's bytes and error,
// every member's counters after each round and, in clean and degraded
// streams, every op's end clock, with failures, repairs and bad sectors
// between the rounds of faulty streams. The transcripts in testdata were
// recorded from that model, every disk one FIFO server (the blockdev package
// keeps its disk as refDisk); -update rewrites them from this tree, which is
// right only for a change that means to move virtual time.
func TestArrayClockMatchesResourceModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level Level
		n     int
		prof  blockdev.Profile
	}{
		{"raid5-7hdd", RAID5, 7, blockdev.HDDProfile()},
		{"raid1-2ssd", RAID1, 2, blockdev.SSDProfile()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for seed := int64(1); seed <= 6; seed++ {
				kind := [...]string{"clean", "degraded", "faulty"}[seed%3]
				got = append(got, fmt.Sprintf("seed %d %s", seed, kind))
				got = append(got, arrayStream(seed, kind, tc.level, tc.n, tc.prof)...)
			}
			path := filepath.Join("testdata", "clock-"+tc.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			for i := range max(len(got), len(want)) {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s, line %d:\nclock:    %q\nresource: %q", path, i+1, at(got, i), at(want, i))
				}
			}
			t.Logf("%d transcript lines identical", len(got))
		})
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}
