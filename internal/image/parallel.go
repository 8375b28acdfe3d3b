// Parallel strip reading: a tray's discs sit in twelve independent drives,
// so parity verification and erasure recovery can read all columns
// concurrently and aggregate close to Table 2's 282.5 MB/s instead of the
// 24.1 MB/s a single drive sustains. The parallel variants below read in
// 1 MB chunk rounds: each round is one Proc.Fork with a child per live
// column, and the (time-free) XOR/GF math then runs serially on the caller.
// Memory stays bounded at one chunk buffer per column, reused from round to
// round, and each column read is admitted through a Gate so a background
// scan cannot starve interactive readers.
package image

import (
	"bytes"
	"fmt"

	"ros/internal/raid"
	"ros/internal/sim"
)

// Gate admits one column read at a time per Acquire/Release pair. olfs backs
// it with the mechanical scheduler's per-group read slots so parallel
// scrub/recover scans yield to interactive requests between chunks; a nil
// Gate admits everything immediately.
type Gate interface {
	Acquire(p *sim.Proc)
	Release()
}

// columns reads the non-nil backends of a parallel scan one chunk round at a
// time, each into its own chunk buffer.
type columns struct {
	name string    // Fork name of the column readers
	cols []Backend // nil where a column is absent
	live []int     // indices of the non-nil columns, in order
	buf  [][]byte  // a chunk buffer per live column, reused from round to round
	err  []error   // each column's read error in the latest round
	gate Gate
}

func newColumns(name string, cols []Backend, gate Gate) *columns {
	c := &columns{
		name: name + "-col",
		cols: cols,
		buf:  make([][]byte, len(cols)),
		err:  make([]error, len(cols)),
		gate: gate,
	}
	for i, b := range cols {
		if b != nil {
			c.live = append(c.live, i)
			c.buf[i] = make([]byte, parityChunk)
		}
	}
	return c
}

// readChunk reads [off, off+n) of every live column into its buffer at once,
// one Fork child per live column in column order, each admitted through the
// gate, and reports whether any read failed.
func (c *columns) readChunk(p *sim.Proc, off int64, n int) (failed bool) {
	return p.Fork(c.name, len(c.live), func(sp *sim.Proc, k int) error {
		i := c.live[k]
		if c.gate != nil {
			c.gate.Acquire(sp)
		}
		c.err[i] = c.cols[i].ReadAt(sp, c.buf[i][:n], off)
		if c.gate != nil {
			c.gate.Release()
		}
		return c.err[i]
	}) != nil
}

// VerifyParityParallel is VerifyParity with all data and parity columns read
// concurrently (one Fork child per disc in each 1 MB round). Results match
// the serial scan: a strip is bad when any column fails to read or the
// recomputed P (and Q) mismatches the stored parity.
func VerifyParityParallel(p *sim.Proc, data []Backend, parity []Backend, length int64, gate Gate) ([]int64, error) {
	if len(parity) < 1 || len(parity) > 2 {
		return nil, ErrParityCount
	}
	cols := make([]Backend, 0, len(data)+len(parity))
	cols = append(cols, data...)
	cols = append(cols, parity...)
	rd := newColumns("verify", cols, gate)
	var bad []int64
	pAcc := make([]byte, parityChunk)
	var qAcc []byte
	if len(parity) == 2 {
		qAcc = make([]byte, parityChunk)
	}
	for off := int64(0); off < length; off += parityChunk {
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
		if rd.readChunk(p, off, n) {
			bad = append(bad, off)
			continue
		}
		for i := range pAcc[:n] {
			pAcc[i] = 0
		}
		if qAcc != nil {
			for i := range qAcc[:n] {
				qAcc[i] = 0
			}
		}
		for col := range data {
			b := rd.buf[col]
			raid.XorSlice(b[:n], pAcc[:n])
			if qAcc != nil {
				raid.MulXorSlice(raid.Pow2(col), b[:n], qAcc[:n])
			}
		}
		mismatch := !bytes.Equal(pAcc[:n], rd.buf[len(data)][:n])
		if !mismatch && qAcc != nil {
			mismatch = !bytes.Equal(qAcc[:n], rd.buf[len(data)+1][:n])
		}
		if mismatch {
			bad = append(bad, off)
		}
	}
	return bad, nil
}

// RecoverParallel is Recover with the surviving columns read concurrently.
// The reconstruction math and the writes to the out backends stay on the
// calling process (the outputs are buffer buckets, not drives).
//
// shadow optionally carries a degraded direct view for each lost column
// (same shape as data, nil where absent): a disc classified bad by a scrub
// probe usually still reads outside its failed sectors, so a chunk that
// looks doubly-erased at bulk granularity re-resolves per sector against
// the shadows instead of failing (see recoverChunkSectors).
func RecoverParallel(p *sim.Proc, data, shadow, parity []Backend, out []Backend, length int64, gate Gate) error {
	var lost []int
	for i, d := range data {
		if d == nil {
			lost = append(lost, i)
		}
	}
	pLost := len(parity) < 1 || parity[0] == nil
	qAvail := len(parity) == 2 && parity[1] != nil
	var useP, useQ bool
	overCap := false
	switch {
	case len(lost) == 0:
		return nil
	case len(lost) == 1 && !pLost:
		useP = true
	case len(lost) == 1 && qAvail:
		useQ = true
	case len(lost) == 2 && !pLost && qAvail:
		useP, useQ = true, true
	default:
		// Beyond the static parity capability — still recoverable per sector
		// when every lost column has a readable-outside-its-LSEs shadow.
		for _, l := range lost {
			if l >= len(shadow) || shadow[l] == nil {
				return fmt.Errorf("%w: %d data lost, P lost=%v, Q avail=%v", ErrTooManyLost, len(lost), pLost, qAvail)
			}
		}
		overCap = true
		useP = !pLost
		useQ = qAvail
	}
	cols := append([]Backend(nil), data...)
	pIdx, qIdx := -1, -1
	if useP {
		pIdx = len(cols)
		cols = append(cols, parity[0])
	}
	if useQ {
		qIdx = len(cols)
		cols = append(cols, parity[1])
	}
	rd := newColumns("recover", cols, gate)
	acc := make([]byte, parityChunk)
	var qxy, dx, dy []byte
	if len(lost) == 2 {
		qxy = make([]byte, parityChunk)
		dx = make([]byte, parityChunk)
		dy = make([]byte, parityChunk)
	}
	for off := int64(0); off < length; off += parityChunk {
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
		if rd.readChunk(p, off, n) || overCap {
			// A failed bulk read (or an over-capability stripe) drops to
			// sector granularity: non-aligned sector errors across columns
			// are individually coverable by the same parity.
			haveData := make([][]byte, len(data))
			for i := range data {
				if data[i] != nil && rd.err[i] == nil {
					haveData[i] = rd.buf[i]
				}
			}
			var haveP, haveQ []byte
			if pIdx >= 0 && rd.err[pIdx] == nil {
				haveP = rd.buf[pIdx]
			}
			if qIdx >= 0 && rd.err[qIdx] == nil {
				haveQ = rd.buf[qIdx]
			}
			if err := recoverChunkSectors(p, data, shadow, parity, out, gate, off, n, haveData, haveP, haveQ); err != nil {
				return err
			}
			continue
		}
		switch {
		case len(lost) == 1 && useP:
			copy(acc[:n], rd.buf[pIdx][:n])
			for col := range data {
				if col == lost[0] {
					continue
				}
				raid.XorSlice(rd.buf[col][:n], acc[:n])
			}
			if err := out[lost[0]].WriteAt(p, acc[:n], off); err != nil {
				return err
			}
		case len(lost) == 1: // Q-only reconstruction
			copy(acc[:n], rd.buf[qIdx][:n])
			for col := range data {
				if col == lost[0] {
					continue
				}
				raid.MulXorSlice(raid.Pow2(col), rd.buf[col][:n], acc[:n])
			}
			inv := raid.Inv(raid.Pow2(lost[0]))
			for i := 0; i < n; i++ {
				acc[i] = raid.Mul(acc[i], inv)
			}
			if err := out[lost[0]].WriteAt(p, acc[:n], off); err != nil {
				return err
			}
		default: // two erasures with P+Q
			copy(acc[:n], rd.buf[pIdx][:n])
			copy(qxy[:n], rd.buf[qIdx][:n])
			for col := range data {
				if col == lost[0] || col == lost[1] {
					continue
				}
				raid.XorSlice(rd.buf[col][:n], acc[:n])
				raid.MulXorSlice(raid.Pow2(col), rd.buf[col][:n], qxy[:n])
			}
			raid.SolveTwoErasures(lost[0], lost[1], acc[:n], qxy[:n], dx[:n], dy[:n])
			if err := out[lost[0]].WriteAt(p, dx[:n], off); err != nil {
				return err
			}
			if err := out[lost[1]].WriteAt(p, dy[:n], off); err != nil {
				return err
			}
		}
	}
	return nil
}
