package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ros"
)

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

// readFrom says which files a read draws from; the draw itself (op.Pick) is
// resolved against the files acknowledged so far when the read is issued.
type readFrom uint8

const (
	fromRecent readFrom = iota // one of the last workload.Recent acked files
	fromOlder                  // uniform over acked files older than that
	fromSeeded                 // op.Pick indexes the pre-populated files
)

// op is one generated operation. A stream is fully determined by the seed;
// the program under test sees only paths and payload bytes.
type op struct {
	Kind opKind
	// Due is the virtual time the op's arrival is scheduled for (open loop).
	// Ops that share an Arrival run back-to-back in one process: the first is
	// due at Due, each later one when its predecessor is acknowledged.
	Due     time.Duration
	Arrival int
	File    int      // writes: file index, which names the path and payload
	Size    int      // writes: payload bytes
	From    readFrom // reads
	Pick    uint32   // reads: the random draw
	Window  int      // fromRecent reads: how many acked files back the draw reaches (0: workload.Recent)
}

// sizePoint is one knot of a payload-size quantile curve: the Q-quantile of
// the size distribution is Bytes. Between knots sizes are log-interpolated.
type sizePoint struct {
	Q     float64
	Bytes int
}

// udfBlock is the image file system's block size. Sizes are whole blocks:
// a file with a partial last block, closed after a concurrent writer filled
// its bucket, fails with "udf: no space left in volume" (README, defects).
const udfBlock = 2 * kb

// spreadSizes returns n sizes, one from each of n equal slices of the curve's
// quantile range (stratified sampling), in seeded random order. Every seed
// therefore offers almost exactly the same bytes and the same mix, and what
// varies is order, timing and read targets; a continuous curve keeps latency
// from collapsing onto a few points, one per size class.
func spreadSizes(rng *rand.Rand, n int, curve []sizePoint) []int {
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + rng.Float64()) / float64(n)
		k := 1
		for k < len(curve)-1 && q > curve[k].Q {
			k++
		}
		a, b := curve[k-1], curve[k]
		t := (q - a.Q) / (b.Q - a.Q)
		la, lb := math.Log(float64(a.Bytes)), math.Log(float64(b.Bytes))
		out[i] = (int(math.Exp(la+t*(lb-la))) + udfBlock - 1) / udfBlock * udfBlock
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spreadGaps returns n inter-arrival gaps at the evenly spaced quantiles
// (i+0.5)/n of the exponential distribution with the given mean, in seeded
// random order: Poisson-like arrivals whose total span is the same for every
// seed. (No jitter within the slices here: the last slice is unbounded.)
func spreadGaps(rng *rand.Rand, n int, mean time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		out[i] = time.Duration(-math.Log(1-q) * float64(mean))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spreadZipf returns n popularity ranks in [0, items) with rank k drawn in
// proportion to 1/(k+1)^s, each rank's count fixed by largest remainder, in
// seeded random order: every seed reads the same multiset of ranks.
func spreadZipf(rng *rand.Rand, n, items int, s float64) []int {
	weights := make([]float64, items)
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		sum += weights[k]
	}
	out := make([]int, 0, n)
	var acc float64
	for k, w := range weights {
		acc += w / sum * float64(n)
		for float64(len(out))+0.5 < acc {
			out = append(out, k)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// spreadCounts returns n counts evenly spaced from lo to hi whose sum is
// total (the remainder is dealt one each from the front), in seeded random
// order.
func spreadCounts(rng *rand.Rand, n, lo, hi, total int) []int {
	out := make([]int, n)
	sum := 0
	for i := range out {
		out[i] = lo + i*(hi-lo)/(n-1)
		sum += out[i]
	}
	for i := 0; sum < total; i = (i + 1) % n {
		out[i]++
		sum++
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// workload is one benchmark scenario. Options carries sizing fields only:
// policies stay at the shipped defaults so a later default flip shows.
type workload struct {
	Name string
	Why  string
	// Options sizes the system.
	Options ros.Options
	// Seeded is how many files set-up writes and burns before measuring.
	Seeded         int
	SeededSize     int
	SeededPerImage int // set-up seals the open image after this many files
	// Closed-loop workloads run Clients streams until Horizon; open-loop
	// ones dispatch every arrival at its due time.
	Closed  bool
	Clients int
	Horizon time.Duration
	// Recent is how far back a fromRecent read reaches, in acked files.
	Recent int
	// MaxBufferPct, when set, is the write-buffer occupancy the workload
	// must stay under: above it the offered load was not sustainable.
	MaxBufferPct float64
	// Gen builds the op streams, one per client.
	Gen func(w *workload, rng *rand.Rand) [][]op
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// Frozen sizes. They are part of the benchmark's definition (README.md
// repeats them): changing one changes every number, so a change here is a
// new baseline, never part of a change that claims a gain. They were tuned
// once so that a pass costs about passSeconds of host time.
const (
	steadyWrites   = 1200
	steadyReads    = 800
	steadySessions = 141               // uploads of 1-16 files (mean 8.5)
	steadySplit    = 6                 // 12 MB files, each spanning seven 2 MB buckets: the split-file path
	steadyGap      = 690 * time.Second // mean gap between one client's uploads: about 0.6x the burn drain

	overloadCap     = 1400 // ops generated per closed-loop client; the horizon ends the run first
	overloadHorizon = 4 * time.Hour

	coldOps         = 6000
	coldWrites      = 850
	coldTrays       = 32
	coldFilesPerTr  = 14
	coldSeededBytes = 64 * kb
	coldGap         = 240 * time.Second

	fleetOps    = 2400
	fleetWrites = 600
	fleetGap    = 20 * time.Second
)

var workloads = []*workload{
	{
		Name: "ingest-steady",
		Why: "open-loop directory uploads at 0.6x the burn drain, each read back from the buffer: " +
			"ack latency and host cost live in olfs/mv/udf/pagecache/raid; mechanics are off the ack path",
		Options: ros.Options{
			// 2 MB buckets, not the default 8 MB: a pass then burns about 55
			// image sets, not 13, and the burn-lag tail is a statistic.
			BucketBytes: 2 * mb, BufferSlots: 120,
			FS: ros.FSConfig{RecycleAfterBurn: true},
		},
		Clients:      2,
		MaxBufferPct: 60,
		Gen:          genSteady,
	},
	{
		Name: "ingest-overload",
		Why: "closed-loop clients against a 64 MB admission bucket for a fixed horizon: " +
			"admission, burn planning, sched burn class, arm and optical burn decide ack p99 and drain rate",
		Options: ros.Options{
			BucketBytes: 2 * mb, BufferSlots: 60, BurnCap: 380e6,
			Write: ros.WriteConfig{Admission: ros.AdmissionConfig{
				Enabled: true, CapacityBytes: 64 * mb, MaxWait: 2 * time.Minute,
			}},
		},
		Closed:  true,
		Clients: 4,
		Horizon: overloadHorizon,
		Recent:  50,
		Gen:     genOverload,
	},
	{
		Name: "cold-read",
		Why: "Zipf reads over burned, recycled trays beside a trickle of writes whose burns compete for " +
			"drive groups and arm: latency is sched wait, arm, tray load, spin-up, transfer; host cost is small",
		Options: ros.Options{
			// Set-up writes every tray's images before the first burn ends,
			// so the buffer must hold them all (2 data + 1 parity per tray).
			BucketBytes: 512 * kb, BufferSlots: 3*coldTrays + 12,
			FS: ros.FSConfig{RecycleAfterBurn: true},
		},
		Seeded:         coldTrays * coldFilesPerTr,
		SeededSize:     coldSeededBytes,
		SeededPerImage: coldFilesPerTr / 2,
		Gen:            genCold,
	},
	{
		Name: "fleet-mix",
		Why: "4 racks, 2 replicas, telemetry on: replicated writes beside hot (buffer) and cold (disc) reads, " +
			"so a gain for one use bought at another's expense has somewhere to show",
		Options: ros.Options{
			Racks: 4, Replicas: 2, BucketBytes: 512 * kb, SampleEvery: time.Minute,
			FS: ros.FSConfig{RecycleAfterBurn: true},
		},
		Recent: 20,
		Gen:    genFleet,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// genSteady: two clients, each a Poisson stream of upload sessions. A session
// sends a directory of 1-16 files back-to-back, then reads two files back
// for every three it wrote, picked among those it just sent (buffer tier). Sizes run from 2 KB to 2 MB (median about 8 KB) plus a few 12 MB
// files that span seven buckets.
func genSteady(w *workload, rng *rand.Rand) [][]op {
	sizes := spreadSizes(rng, steadyWrites-steadySplit, []sizePoint{
		{0, 1 * kb}, {0.60, 16 * kb}, {0.90, 256 * kb}, {1, 2 * mb},
	})
	for i := 0; i < steadySplit; i++ {
		sizes = append(sizes, 12*mb)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

	uploads := spreadCounts(rng, steadySessions, 1, 16, steadyWrites)
	// Each client draws its own gaps, so both streams span the same time
	// whichever sessions they carry.
	gaps := make([][]time.Duration, w.Clients)
	for c := range gaps {
		gaps[c] = spreadGaps(rng, (steadySessions+w.Clients-1)/w.Clients, steadyGap)
	}

	streams := make([][]op, w.Clients)
	clock := make([]time.Duration, w.Clients)
	file, reads := 0, 0
	for a, k := range uploads {
		c := a % w.Clients
		if a >= w.Clients {
			clock[c] += time.Second + gaps[c][a/w.Clients]
		}
		for i := 0; i < k; i++ {
			streams[c] = append(streams[c], op{Kind: opWrite, Due: clock[c], Arrival: a,
				File: file, Size: sizes[file]})
			file++
		}
		for want := file * steadyReads / steadyWrites; reads < want; reads++ {
			streams[c] = append(streams[c], op{Kind: opRead, Due: clock[c], Arrival: a,
				From: fromRecent, Pick: rng.Uint32(), Window: k})
		}
	}
	return streams
}

// genOverload: four closed-loop clients; every fourth op reads back a recent
// file, the rest write 16-256 KB (mean about 64 KB).
func genOverload(w *workload, rng *rand.Rand) [][]op {
	streams := make([][]op, w.Clients)
	file := 0
	for c := range streams {
		sizes := spreadSizes(rng, overloadCap*3/4, []sizePoint{
			{0, 16 * kb}, {0.70, 64 * kb}, {1, 256 * kb},
		})
		wi := 0
		for i := 0; i < overloadCap; i++ {
			if i%4 == 3 {
				streams[c] = append(streams[c], op{Kind: opRead, Arrival: i,
					From: fromRecent, Pick: rng.Uint32()})
				continue
			}
			streams[c] = append(streams[c], op{Kind: opWrite, Arrival: i,
				File: file, Size: sizes[wi]})
			wi++
			file++
		}
	}
	return streams
}

// genCold: one Poisson stream, mean gap 240 s: 5150 reads, Zipf(1.1) over the
// pre-burned files in tray-shuffled order, and 850 writes of 8-96 KB.
func genCold(w *workload, rng *rand.Rand) [][]op {
	perm := rng.Perm(w.Seeded) // popularity rank -> file, so hot files spread over trays
	ranks := spreadZipf(rng, coldOps-coldWrites, w.Seeded, 1.1)
	isWrite := make([]bool, coldOps)
	for i := 0; i < coldWrites; i++ {
		isWrite[i] = true
	}
	rng.Shuffle(coldOps, func(i, j int) { isWrite[i], isWrite[j] = isWrite[j], isWrite[i] })
	sizes := spreadSizes(rng, coldWrites, []sizePoint{{0, 8 * kb}, {0.5, 24 * kb}, {1, 96 * kb}})
	gaps := spreadGaps(rng, coldOps, coldGap)
	s := make([]op, 0, coldOps)
	var clock time.Duration
	file := w.Seeded
	for a := 0; a < coldOps; a++ {
		clock += gaps[a]
		if isWrite[a] {
			s = append(s, op{Kind: opWrite, Due: clock, Arrival: a, File: file, Size: sizes[file-w.Seeded]})
			file++
			continue
		}
		s = append(s, op{Kind: opRead, Due: clock, Arrival: a,
			From: fromSeeded, Pick: uint32(perm[ranks[a-(file-w.Seeded)]])})
	}
	return [][]op{s}
}

// genFleet: one Poisson stream, mean gap 20 s: 600 replicated writes of
// 4 KB-1 MB (median 32 KB) and 1800 reads: two of three of one of the last 20
// files (hot: still buffered), the third of any older one (mostly burned and
// recycled: cold, racing that rack's burns). The split is not even so that
// the median read sits inside the hot mode instead of on the edge between
// the two.
func genFleet(w *workload, rng *rand.Rand) [][]op {
	nWrites := fleetWrites
	sizes := spreadSizes(rng, nWrites, []sizePoint{
		{0, 4 * kb}, {0.50, 32 * kb}, {0.90, 256 * kb}, {1, 1 * mb},
	})
	isWrite := make([]bool, fleetOps-1)
	for i := 0; i < nWrites-1; i++ {
		isWrite[i] = true
	}
	rng.Shuffle(len(isWrite), func(i, j int) { isWrite[i], isWrite[j] = isWrite[j], isWrite[i] })
	isWrite = append([]bool{true}, isWrite...) // a write first, so reads have a target
	gaps := spreadGaps(rng, fleetOps, fleetGap)
	s := make([]op, 0, fleetOps)
	var clock time.Duration
	file, read := 0, 0
	for a := 0; a < fleetOps; a++ {
		if a > 0 {
			clock += time.Second + gaps[a]
		}
		if isWrite[a] {
			s = append(s, op{Kind: opWrite, Due: clock, Arrival: a, File: file, Size: sizes[file]})
			file++
			continue
		}
		from := fromRecent
		if read%3 == 2 {
			from = fromOlder
		}
		read++
		s = append(s, op{Kind: opRead, Due: clock, Arrival: a, From: from, Pick: rng.Uint32()})
	}
	return [][]op{s}
}

// filePath names file i. Directories of 64 keep MV directories small.
func filePath(i int) string { return fmt.Sprintf("/bench/d%04d/f%06d", i/64, i) }

// payloads hands out file contents as windows onto one seeded random pool,
// so generating and checking a payload costs no allocation and no hashing
// that would be charged to the system's host cost.
type payloads struct {
	pool []byte
}

func newPayloads(seed int64, maxSize int) *payloads {
	pool := make([]byte, maxSize+4*mb)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &payloads{pool: pool}
}

// data returns file i's content: size bytes at an offset mixed from i.
func (pl *payloads) data(i, size int) []byte {
	span := uint64(len(pl.pool) - size)
	off := (uint64(i)*0x9E3779B97F4A7C15 + 0x7F4A7C15) % span
	return pl.pool[off : off+uint64(size)]
}
