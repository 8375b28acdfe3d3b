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
		n := int(min(parityChunk, length-off))
		if rd.readChunk(p, off, n) {
			bad = append(bad, off)
			continue
		}
		clear(pAcc)
		clear(qAcc)
		for col := range data {
			raid.Fold(col, rd.buf[col][:n], pAcc, qAcc)
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
	lost, useP, useQ, err := plan(data, parity)
	if len(lost) == 0 {
		return nil
	}
	overCap := err != nil
	if overCap {
		// Beyond the static parity capability — still recoverable per sector
		// when every lost column has a readable-outside-its-LSEs shadow.
		for _, l := range lost {
			if l >= len(shadow) || shadow[l] == nil {
				return err
			}
		}
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
	// syndrome is the chunk just read of parity column i, or nil.
	syndrome := func(i, n int) []byte {
		if i < 0 || rd.err[i] != nil {
			return nil
		}
		return rd.buf[i][:n]
	}
	for off := int64(0); off < length; off += parityChunk {
		n := int(min(parityChunk, length-off))
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
			if err := recoverChunkSectors(p, data, shadow, parity, out, gate, off, n, haveData, syndrome(pIdx, n), syndrome(qIdx, n)); err != nil {
				return err
			}
			continue
		}
		// The syndromes build in the parity columns' own read buffers, which
		// the next round reads into afresh.
		pSyn, qSyn := syndrome(pIdx, n), syndrome(qIdx, n)
		for col := range data {
			if data[col] != nil {
				raid.Fold(col, rd.buf[col][:n], pSyn, qSyn)
			}
		}
		if err := solve(p, lost, pSyn, qSyn, out, off); err != nil {
			return err
		}
	}
	return nil
}
