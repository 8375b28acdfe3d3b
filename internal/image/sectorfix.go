// Sector-granular stripe repair: a drive read fails if ANY sector in the
// requested range is bad, so at chunk granularity two latent sector errors on
// different discs look like a double erasure even when they sit in different
// sectors. Re-resolving a failed chunk per sector recovers every stripe the
// redundancy actually covers (§4.7: "data on the failed sectors can be
// recovered from their parity discs and the corresponding data discs").
package image

import (
	"fmt"

	"ros/internal/raid"
	"ros/internal/sim"
)

// repairSector mirrors optical.SectorSize, the disc model's read-failure
// granularity (also the UDF block size).
const repairSector = 2048

// sectorBuf is one column's chunk at sector granularity: bytes plus a
// per-sector validity map.
type sectorBuf struct {
	buf []byte
	ok  []bool
}

func nSectors(n int) int { return (n + repairSector - 1) / repairSector }

// secSpan returns the byte range of sectors [lo, hi) within an n-byte chunk.
func secSpan(lo, hi, n int) (blo, bhi int) {
	blo = lo * repairSector
	bhi = hi * repairSector
	if bhi > n {
		bhi = n
	}
	return blo, bhi
}

// scanColumn fills sb from b's chunk at off, bisecting on read failures so
// only genuinely bad sectors stay invalid (a couple of LSEs cost O(log)
// extra reads, not one read per sector). Reads pass through the gate.
func scanColumn(p *sim.Proc, b Backend, gate Gate, off int64, n int, sb *sectorBuf) {
	var scan func(lo, hi int)
	scan = func(lo, hi int) {
		if lo >= hi {
			return
		}
		blo, bhi := secSpan(lo, hi, n)
		if gate != nil {
			gate.Acquire(p)
		}
		err := b.ReadAt(p, sb.buf[blo:bhi], off+int64(blo))
		if gate != nil {
			gate.Release()
		}
		if err == nil {
			for s := lo; s < hi; s++ {
				sb.ok[s] = true
			}
			return
		}
		if hi-lo == 1 {
			return // isolated bad sector
		}
		mid := (lo + hi) / 2
		scan(lo, mid)
		scan(mid, hi)
	}
	scan(0, nSectors(n))
}

// recoverChunkSectors resolves one recovery chunk whose bulk reads failed.
// haveData[i]/haveP/haveQ hold the bulk bytes of columns whose chunk read
// succeeded (nil otherwise); columns without bulk bytes are re-read per
// sector — survivors through their data view, lost columns through their
// degraded shadow view when one exists. Each sector is then reconstructed
// with whatever redundancy is valid there, and every lost column's chunk is
// written to its out backend.
func recoverChunkSectors(p *sim.Proc, data, shadow, parity []Backend, out []Backend,
	gate Gate, off int64, n int, haveData [][]byte, haveP, haveQ []byte) error {
	// load takes a column's bulk bytes, else scans b per sector; a column
	// with neither has no valid sector.
	load := func(have []byte, b Backend) *sectorBuf {
		sb := &sectorBuf{buf: make([]byte, n), ok: make([]bool, nSectors(n))}
		switch {
		case have != nil:
			copy(sb.buf, have[:n])
			for s := range sb.ok {
				sb.ok[s] = true
			}
		case b != nil:
			scanColumn(p, b, gate, off, n, sb)
		}
		return sb
	}
	cols := make([]*sectorBuf, len(data))
	for i, b := range data {
		if b == nil && i < len(shadow) {
			b = shadow[i]
		}
		cols[i] = load(haveData[i], b)
	}
	var pq [2]Backend
	copy(pq[:], parity)
	pb, qb := load(haveP, pq[0]), load(haveQ, pq[1])

	var missing []int
	var res [2][]byte
	for s := range pb.ok {
		blo, bhi := secSpan(s, s+1, n)
		missing = missing[:0]
		for i, sb := range cols {
			if !sb.ok[s] {
				missing = append(missing, i)
			}
		}
		useP, useQ, err := raid.Plan(missing, pb.ok[s], qb.ok[s])
		if err != nil {
			return fmt.Errorf("%w: %d columns with only %d parity readable at offset %d",
				ErrTooManyLost, len(missing), boolCount(pb.ok[s], qb.ok[s]), off+int64(blo))
		}
		// Each sector's parity is used once, so its syndromes build in place.
		var pSyn, qSyn []byte
		if useP {
			pSyn = pb.buf[blo:bhi]
		}
		if useQ {
			qSyn = qb.buf[blo:bhi]
		}
		for i, sb := range cols {
			if sb.ok[s] {
				raid.Fold(i, sb.buf[blo:bhi], pSyn, qSyn)
			}
		}
		for i, m := range missing {
			res[i] = cols[m].buf[blo:bhi]
			cols[m].ok[s] = true
		}
		raid.Solve(missing, pSyn, qSyn, res[:len(missing)])
	}

	for i := range data {
		if data[i] != nil || i >= len(out) || out[i] == nil {
			continue
		}
		if err := out[i].WriteAt(p, cols[i].buf[:n], off); err != nil {
			return err
		}
	}
	return nil
}

func boolCount(b ...bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
