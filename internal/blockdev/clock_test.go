package blockdev

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"ros/internal/sim"
)

// refDisk is the device model Disk replaced, kept as the reference the clock
// is checked against: every access acquires a one-slot sim.Resource, checks
// the device, sleeps its transfer time, moves its bytes and counts, and
// releases the slot, so FIFO service is a queue of parked processes.
type refDisk struct {
	*Disk // profile, store, head position, faults and counters
	svc   *sim.Resource
}

func (r *refDisk) access(p *sim.Proc, off, n int64, write bool, move func()) error {
	if off < 0 || off+n > r.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, r.size)
	}
	r.svc.Acquire(p)
	defer r.svc.Release()
	if r.failed {
		return ErrFailed
	}
	for s := off &^ 4095; !write && s < off+n; s += 4096 {
		if r.badSecs[s] {
			return fmt.Errorf("%w: offset %d", ErrBadSector, s)
		}
	}
	p.Sleep(r.transferTime(off, int(n)))
	r.lastEnd = off + n
	r.count(n, write)
	move()
	return nil
}

func (r *refDisk) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	return r.access(p, off, int64(len(buf)), false, func() { r.store.ReadAt(buf, off) })
}

func (r *refDisk) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return r.access(p, off, int64(len(buf)), true, func() { r.store.WriteAt(buf, off) })
}

func (r *refDisk) Adopt(p *sim.Proc, off int64, pieces [][]byte) error {
	n := int64(0)
	for _, pc := range pieces {
		n += int64(len(pc))
	}
	return r.access(p, off, n, true, func() { r.store.Adopt(off, pieces) })
}

func (r *refDisk) Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error) {
	err := r.access(p, off, n, false, func() { dst = r.store.Lend(dst, off, n) })
	return dst, err
}

// streamDev is what the op streams drive: a Disk or a refDisk.
type streamDev interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	Adopt(p *sim.Proc, off int64, pieces [][]byte) error
	Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error)
}

// clockStream runs a seeded op stream on an HDD and an SSD built by mk and
// returns its transcript: every op's bytes, end clock and error, every
// disk's counters after each round, and the faults applied between rounds.
// Three processes run each round concurrently, each a few reads, writes,
// adoptions and lends of up to 64 KB in one shared 1 MB region of a random
// disk, with think times that leave some accesses queued and others arriving
// at the same instant, so reads see other processes' writes in arrival order.
func clockStream(seed int64, mk func(env *sim.Env, size int64, prof Profile) (streamDev, *Disk)) []string {
	const procs, rounds, region = 3, 10, 1 << 20
	env := sim.NewEnv()
	defer env.Close()
	var devs []streamDev
	var disks []*Disk
	for _, prof := range []Profile{HDDProfile(), SSDProfile()} {
		dev, disk := mk(env, 4<<20, prof)
		devs, disks = append(devs, dev), append(disks, disk)
	}
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	faults := rand.New(rand.NewSource(seed))
	env.Go("driver", func(p *sim.Proc) {
		for round := 0; round < rounds; round++ {
			var lines [procs][]string // each process's, so that completion order is not compared
			p.Fork("stream", procs, func(sp *sim.Proc, i int) error {
				rng := rand.New(rand.NewSource(seed*1000 + int64(round*procs+i)))
				for n := 1 + rng.Intn(4); n > 0; n-- {
					sp.Sleep(time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(2000)) * time.Microsecond)
					d := rng.Intn(len(devs))
					size := 1 + rng.Intn(64<<10)
					off := int64(rng.Intn(region - size))
					if rng.Intn(20) == 0 {
						off = 4<<20 - int64(size) + 1 // past the end
					}
					kind := [...]string{"read", "lend", "write", "adopt"}[rng.Intn(4)]
					sum, err := uint32(0), error(nil)
					switch kind {
					case "read":
						buf := make([]byte, size)
						err = devs[d].ReadAt(sp, buf, off)
						sum = crc32.ChecksumIEEE(buf)
					case "lend":
						var pieces [][]byte
						pieces, err = devs[d].Lend(sp, off, int64(size), nil)
						for _, pc := range pieces {
							sum = crc32.Update(sum, crc32.IEEETable, pc)
						}
					default:
						buf := make([]byte, size)
						rng.Read(buf)
						if kind == "write" {
							err = devs[d].WriteAt(sp, buf, off)
						} else {
							cut := rng.Intn(size)
							err = devs[d].Adopt(sp, off, [][]byte{buf[:cut], buf[cut:]})
						}
					}
					lines[i] = append(lines[i], fmt.Sprintf("r%d p%d %s d%d %d+%d: end %v err %v sum %08x", round, i, kind, d, off, size, sp.Now(), err, sum))
				}
				return nil
			})
			for _, l := range lines {
				out = append(out, l...)
			}
			for i, d := range disks {
				logf("r%d d%d: read %d wrote %d ops %d", round, i, d.BytesRead, d.BytesWritten, d.Ops)
			}
			// Faults land between rounds, while no access is queued.
			d, off := faults.Intn(len(disks)), int64(faults.Intn(region))
			switch faults.Intn(6) {
			case 0:
				disks[d].Fail()
				logf("fail d%d", d)
			case 1:
				disks[d].Repair()
				logf("repair d%d", d)
			case 2, 3:
				for range 8 {
					disks[d].CorruptSector(off)
					logf("corrupt d%d %d", d, off&^4095)
					off = int64(faults.Intn(region))
				}
			}
		}
	})
	env.Run()
	return out
}

// TestClockMatchesResourceModel: a Disk that is a clock serves seeded
// multi-process op streams exactly as the Resource model it replaced — every
// op's bytes, end clock and error, and every disk's counters at the end of
// each round — with failures, repairs and bad sectors between rounds.
func TestClockMatchesResourceModel(t *testing.T) {
	clock := func(env *sim.Env, size int64, prof Profile) (streamDev, *Disk) {
		d := New(env, size, prof)
		return d, d
	}
	ref := func(env *sim.Env, size int64, prof Profile) (streamDev, *Disk) {
		r := &refDisk{Disk: New(env, size, prof), svc: sim.NewResource(env, 1)}
		return r, r.Disk
	}
	lines := 0
	for seed := int64(1); seed <= 60; seed++ {
		got, want := clockStream(seed, clock), clockStream(seed, ref)
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\nclock:    %q\nresource: %q", seed, i, at(got, i), at(want, i))
			}
		}
		lines += len(got)
	}
	t.Logf("%d transcript lines identical", lines)
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}
