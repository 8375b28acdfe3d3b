// Package raid implements software RAID levels 0, 1, 5 and 6 over simulated
// block devices, with real parity mathematics: XOR (P) for RAID-5 and
// GF(2^8) Reed-Solomon coefficients (Q) for RAID-6. Degraded reads
// reconstruct lost chunks, scrubbing verifies parity, and rebuild
// re-populates a replacement device.
//
// ROS uses a RAID-1 SSD pair for the metadata volume and RAID-5 HDD sets for
// the disc-image write buffer / read cache (§3.3 of the paper). The same
// P/Q math is reused by internal/image to build parity *disc images* across
// the 12 discs of a tray (§4.7).
package raid

import (
	"bytes"
	"errors"
	"fmt"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// Level selects the redundancy scheme of an Array.
type Level int

// Supported RAID levels.
const (
	RAID0 Level = iota
	RAID1
	RAID5
	RAID6
)

func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID-0"
	case RAID1:
		return "RAID-1"
	case RAID5:
		return "RAID-5"
	case RAID6:
		return "RAID-6"
	}
	return fmt.Sprintf("RAID(%d)", int(l))
}

// Array-level errors.
var (
	ErrTooFewDevices  = errors.New("raid: too few devices for level")
	ErrUnevenDevices  = errors.New("raid: devices must have equal size")
	ErrTooManyFailed  = errors.New("raid: too many failed devices")
	ErrParityMismatch = errors.New("raid: parity mismatch")
)

// Array is a RAID volume over equal-sized devices. All methods must be
// called from simulation processes.
type Array struct {
	env        *sim.Env
	level      Level
	devs       []blockdev.Device
	stripeUnit int
	devSize    int64

	// Scratch for parity, partial-stripe writes (and what WriteFrom copies for
	// them) and reconstruction. Member devices copy a WriteAt buffer before
	// returning (blockdev.Device), so a buffer goes back on its list as soon
	// as the I/O that used it is done.
	chunks  bufList // stripeUnit bytes each
	stripes bufList // stripeUnit * dataPerStripe bytes each

	fanouts []*fanout // member-request tables not in use
}

// bufList is a free list of equally sized scratch buffers. Exactly one
// simulation process runs at a time, so it needs no lock; buffers come back
// with unspecified contents.
type bufList struct {
	size int
	free [][]byte
}

func (l *bufList) get() []byte {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return make([]byte, l.size)
}

func (l *bufList) put(b []byte) { l.free = append(l.free, b) }

// memberOp is what one request of a fan-out does.
type memberOp uint8

const (
	opRead          memberOp = iota // dev.ReadAt(buf, off)
	opWrite                         // dev.WriteAt(buf, off)
	opAdopt                         // dev.Adopt(off, pieces)
	opReadChunk                     // readChunk(stripe, col, buf, off): a data chunk read that reconstructs
	opFullStripe                    // writeFullStripe(stripe, pieces, lent), a fan-out of its own
	opPartialStripe                 // writePartialStripe(stripe, off, buf), a fan-out of its own
)

// memberIO is one request of a fan-out, held by value: an I/O on one member,
// or a whole- or part-stripe write that fans out to the members in turn.
type memberIO struct {
	op     memberOp
	lent   bool // opFullStripe: pieces are lent by a chunk store
	owned  bool // opPartialStripe: buf is stripe scratch, put back when done
	col    int
	stripe int64
	off    int64 // device offset; opReadChunk: offset in the chunk; opPartialStripe: offset in the stripe
	dev    blockdev.Device
	buf    []byte
	pieces [][]byte
	err    error // what the request returned
}

// fanout is a table of member requests that one sim.Proc.Fork runs
// concurrently, request i on child i. Tables come from the array's free list,
// like its buffers, so a fan-out allocates nothing once the list has grown to
// the peak number in flight.
type fanout struct {
	a      *Array
	reqs   []memberIO
	pieces [][]byte                        // the full stripes' columns of one write, back to back
	run    func(sp *sim.Proc, i int) error // do, bound once
}

func (a *Array) fanout() *fanout {
	if n := len(a.fanouts); n > 0 {
		f := a.fanouts[n-1]
		a.fanouts = a.fanouts[:n-1]
		return f
	}
	f := &fanout{a: a}
	f.run = f.do
	return f
}

func (f *fanout) add(r memberIO) { f.reqs = append(f.reqs, r) }

// wait runs every request and returns the error of the lowest-index one that
// failed; each request's own error stays in its err.
func (f *fanout) wait(p *sim.Proc) error { return p.Fork("raid-io", len(f.reqs), f.run) }

// reset empties the table for another fan-out.
func (f *fanout) reset() {
	clear(f.reqs)
	f.reqs = f.reqs[:0]
}

// release empties the table and puts it back on the array's list. Nothing it
// referenced stays reachable from it.
func (f *fanout) release() {
	f.reset()
	clear(f.pieces)
	f.pieces = f.pieces[:0]
	f.a.fanouts = append(f.a.fanouts, f)
}

// do runs request i on sp.
func (f *fanout) do(sp *sim.Proc, i int) error {
	a, r := f.a, &f.reqs[i]
	switch r.op {
	case opRead:
		r.err = r.dev.ReadAt(sp, r.buf, r.off)
	case opWrite:
		r.err = r.dev.WriteAt(sp, r.buf, r.off)
	case opAdopt:
		r.err = r.dev.Adopt(sp, r.off, r.pieces)
	case opReadChunk:
		r.err = a.readChunk(sp, r.stripe, r.col, r.buf, r.off)
	case opFullStripe:
		r.err = a.writeFullStripe(sp, r.stripe, r.pieces, r.lent)
	case opPartialStripe:
		r.err = a.writePartialStripe(sp, r.stripe, r.off, r.buf)
		if r.owned {
			a.stripes.put(r.buf[:cap(r.buf)])
		}
	}
	return r.err
}

// addChunks adds one request per data chunk that [off, off+len(buf)) touches,
// for that chunk's piece of buf: opReadChunk, or for RAID-0, opWrite to the
// chunk's member.
func (f *fanout) addChunks(op memberOp, buf []byte, off int64) {
	a := f.a
	su := int64(a.stripeUnit)
	for n := 0; n < len(buf); {
		co := (off + int64(n)) % su
		run := int(min(su-co, int64(len(buf)-n)))
		stripe, col := a.chunkLoc((off + int64(n)) / su)
		r := memberIO{op: op, stripe: stripe, col: col, off: co, buf: buf[n : n+run]}
		if op == opWrite {
			r.dev, r.off = a.devs[a.dataDev(stripe, col)], stripe*su+co
		}
		f.add(r)
		n += run
	}
}

// New assembles an array. stripeUnit is the per-device chunk size (ignored
// for RAID-1); 64 KB if zero.
func New(env *sim.Env, level Level, devs []blockdev.Device, stripeUnit int) (*Array, error) {
	min := 1
	switch level {
	case RAID1:
		min = 2
	case RAID5:
		min = 3
	case RAID6:
		min = 4
	}
	if len(devs) < min {
		return nil, fmt.Errorf("%w: %s needs >= %d, got %d", ErrTooFewDevices, level, min, len(devs))
	}
	size := devs[0].Size()
	for _, d := range devs {
		if d.Size() != size {
			return nil, ErrUnevenDevices
		}
	}
	if stripeUnit <= 0 {
		stripeUnit = 64 << 10
	}
	a := &Array{env: env, level: level, devs: devs, stripeUnit: stripeUnit, devSize: size}
	a.chunks.size = stripeUnit
	a.stripes.size = stripeUnit * a.dataPerStripe()
	return a, nil
}

// Level returns the array's RAID level.
func (a *Array) Level() Level { return a.level }

// Devices returns the member devices (index order matters for rebuild).
func (a *Array) Devices() []blockdev.Device { return a.devs }

// dataPerStripe returns the number of data chunks per stripe.
func (a *Array) dataPerStripe() int {
	switch a.level {
	case RAID0:
		return len(a.devs)
	case RAID1:
		return 1
	case RAID5:
		return len(a.devs) - 1
	case RAID6:
		return len(a.devs) - 2
	}
	return 0
}

// Size returns the usable capacity in bytes.
func (a *Array) Size() int64 {
	su := int64(a.stripeUnit)
	stripes := a.devSize / su
	return stripes * su * int64(a.dataPerStripe())
}

// pDev returns the device index holding P parity for a stripe (rotating,
// left-symmetric-ish).
func (a *Array) pDev(stripe int64) int {
	n := int64(len(a.devs))
	return int((n - 1 - stripe%n) % n)
}

// qDev returns the device index holding Q parity for a stripe (RAID-6).
func (a *Array) qDev(stripe int64) int {
	return (a.pDev(stripe) + 1) % len(a.devs)
}

// dataDev maps the col-th data chunk of a stripe to a device index.
func (a *Array) dataDev(stripe int64, col int) int {
	p := a.pDev(stripe)
	q := -1
	if a.level == RAID6 {
		q = a.qDev(stripe)
	}
	idx := 0
	for d := 0; d < len(a.devs); d++ {
		if d == p && a.level >= RAID5 {
			continue
		}
		if d == q {
			continue
		}
		if idx == col {
			return d
		}
		idx++
	}
	panic("raid: data column out of range")
}

// chunkLoc converts a logical chunk index to (stripe, column).
func (a *Array) chunkLoc(chunk int64) (stripe int64, col int) {
	k := int64(a.dataPerStripe())
	return chunk / k, int(chunk % k)
}

// ReadAt reads len(buf) bytes at logical offset off, reconstructing through
// parity when member devices have failed.
func (a *Array) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > a.Size() {
		return fmt.Errorf("%w: off=%d len=%d size=%d", blockdev.ErrOutOfRange, off, len(buf), a.Size())
	}
	if a.level == RAID1 {
		return a.readMirror(p, buf, off)
	}
	f := a.fanout()
	defer f.release()
	f.addChunks(opReadChunk, buf, off)
	return f.wait(p)
}

// readChunk reads part of one data chunk, falling back to reconstruction.
func (a *Array) readChunk(p *sim.Proc, stripe int64, col int, dst []byte, coff int64) error {
	dev := a.devs[a.dataDev(stripe, col)]
	err := dev.ReadAt(p, dst, stripe*int64(a.stripeUnit)+coff)
	if err == nil {
		return nil
	}
	if a.level < RAID5 {
		return err
	}
	// Degraded path: reconstruct the whole chunk.
	full := a.chunks.get()
	defer a.chunks.put(full)
	// Wrap the reconstruction error (not the device error) so callers can
	// match ErrTooManyFailed on beyond-bound loss.
	if rerr := a.reconstructChunk(p, stripe, col, full); rerr != nil {
		return fmt.Errorf("degraded read failed: %w (original: %v)", rerr, err)
	}
	copy(dst, full[coff:])
	return nil
}

// readMirror serves RAID-1 reads from the first healthy device.
func (a *Array) readMirror(p *sim.Proc, buf []byte, off int64) error {
	var last error
	for _, d := range a.devs {
		if err := d.ReadAt(p, buf, off); err == nil {
			return nil
		} else {
			last = err
		}
	}
	return fmt.Errorf("%w: all mirrors failed: %v", ErrTooManyFailed, last)
}

// WriteAt writes buf at logical offset off, updating parity.
func (a *Array) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return a.write(p, buf, nil, off, int64(len(buf)))
}

// WriteFrom writes s's bytes [off, off+n) at logical offset off, for a page
// cache flushing its store (pagecache.Backend). It takes every byte before it
// first yields: a full stripe's columns are lent by s to the data members,
// which keep them (blockdev.Device.Adopt), and everything else is copied out
// of s. A partial stripe is never lent, because it is a region still being
// written, and a lent chunk makes each later small write to it copy the whole
// chunk.
func (a *Array) WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error {
	return a.write(p, nil, s, off, n)
}

// write stores [off, off+n) from buf, or from s if s is set.
func (a *Array) write(p *sim.Proc, buf []byte, s *chunk.Store, off, n int64) error {
	if off < 0 || off+n > a.Size() {
		return fmt.Errorf("%w: off=%d len=%d size=%d", blockdev.ErrOutOfRange, off, n, a.Size())
	}
	if a.level >= RAID5 {
		return a.writeParity(p, buf, s, off, n)
	}
	if s != nil {
		buf = make([]byte, n)
		s.ReadAt(buf, off)
	}
	f := a.fanout()
	defer f.release()
	if a.level == RAID0 {
		f.addChunks(opWrite, buf, off)
	} else {
		for _, d := range a.devs {
			f.add(memberIO{op: opWrite, dev: d, buf: buf, off: off})
		}
	}
	return f.wait(p)
}

// writeParity handles RAID-5/6 writes of [off, off+n) from buf or s stripe
// by stripe: full-stripe writes compute parity directly; partial writes read
// only what their plan needs (writePartialStripe). From s, a full stripe's
// columns are lent and a partial stripe is copied into stripe scratch, all
// before the first yield.
func (a *Array) writeParity(p *sim.Proc, buf []byte, s *chunk.Store, off, n int64) error {
	su := int64(a.stripeUnit)
	k := int64(a.dataPerStripe())
	stripeBytes := su * k
	f := a.fanout()
	defer f.release()
	for pos := int64(0); pos < n; {
		loff := off + pos
		stripe, so := loff/stripeBytes, loff%stripeBytes
		run := min(stripeBytes-so, n-pos)
		switch {
		case run == stripeBytes:
			first := len(f.pieces)
			for c := int64(0); c < k; c++ {
				if s != nil {
					f.pieces = s.Lend(f.pieces, loff+c*su, su)
				} else {
					f.pieces = append(f.pieces, buf[pos+c*su:pos+(c+1)*su])
				}
			}
			cols := f.pieces[first:len(f.pieces):len(f.pieces)]
			f.add(memberIO{op: opFullStripe, stripe: stripe, pieces: cols, lent: s != nil})
		case s != nil:
			scratch := a.stripes.get()[:run]
			s.ReadAt(scratch, loff)
			f.add(memberIO{op: opPartialStripe, stripe: stripe, off: so, buf: scratch, owned: true})
		default:
			f.add(memberIO{op: opPartialStripe, stripe: stripe, off: so, buf: buf[pos : pos+run]})
		}
		pos += run
	}
	return f.wait(p)
}

// writeFullStripe writes a whole stripe and computes fresh parity. pieces are
// the stripe's bytes back to back, none crossing a column boundary: one slice
// of a WriteAt caller's buffer per column, which the data members copy, or,
// if lent, pieces lent by a chunk store, which they keep
// (blockdev.Device.Adopt).
func (a *Array) writeFullStripe(p *sim.Proc, stripe int64, pieces [][]byte, lent bool) error {
	su := a.stripeUnit
	soff := stripe * int64(su)
	pbuf := a.chunks.get()
	defer a.chunks.put(pbuf)
	var qbuf []byte
	if a.level == RAID6 {
		qbuf = a.chunks.get()
		defer a.chunks.put(qbuf)
	}
	f := a.fanout()
	defer f.release()
	for col := 0; len(pieces) > 0; col++ {
		// Column col is pieces[:i]. Column 0 seeds both parities (its Q
		// coefficient is g^0 = 1).
		i := 0
		for at := 0; at < su; i++ {
			pc := pieces[i]
			if col == 0 {
				copy(pbuf[at:], pc)
				if qbuf != nil {
					copy(qbuf[at:], pc)
				}
			} else {
				fold(col, at, pc, pbuf, qbuf)
			}
			at += len(pc)
		}
		r := memberIO{op: opWrite, dev: a.devs[a.dataDev(stripe, col)], buf: pieces[0], off: soff}
		if lent {
			r.op, r.buf, r.pieces = opAdopt, nil, pieces[:i]
		}
		f.add(r)
		pieces = pieces[i:]
	}
	f.add(memberIO{op: opWrite, dev: a.devs[a.pDev(stripe)], buf: pbuf, off: soff})
	if qbuf != nil {
		f.add(memberIO{op: opWrite, dev: a.devs[a.qDev(stripe)], buf: qbuf, off: soff})
	}
	return f.wait(p)
}

// writePartialStripe stores a sub-stripe write and brings parity up to date
// over the in-chunk range the write touches, moving only the member bytes the
// request's geometry calls for. Two plans, chosen by which reads fewer
// members:
//
//   - read-modify-write: read the old data the request overwrites and the old
//     parity over the same range, then P ^= old ^ new and Q ^= g^col (old ^ new);
//   - reconstruct-write: read what the request does not overwrite and compute
//     parity afresh.
//
// Both write only the touched data ranges and the parity range. The
// read-modify-write reads go straight to the members; when one of them is
// failed or unreadable the write falls back to reconstruct-write, whose reads
// go through readChunk and so reconstruct. A write to a failed member then
// fails and is reported, while everything else is stored.
func (a *Array) writePartialStripe(p *sim.Proc, stripe int64, so int64, src []byte) error {
	su := a.stripeUnit
	k := a.dataPerStripe()
	soff := stripe * int64(su)
	end := int(so) + len(src)
	first, last := int(so)/su, (end-1)/su
	// The request starts at head in its first column and ends at tail in its
	// last; span is the in-chunk range [lo, hi) it covers in touched column c.
	head, tail := int(so)%su, (end-1)%su+1
	span := func(c int) (lo, hi int) {
		lo, hi = 0, su
		if c == first {
			lo = head
		}
		if c == last {
			hi = tail
		}
		return lo, hi
	}
	// Parity changes over the hull of the touched spans: the span itself for a
	// single column, else the whole chunk (the first column runs to the chunk's
	// end, the last starts at its beginning).
	plo, phi := 0, su
	if first == last {
		plo, phi = head, tail
	}
	// Member reads of each plan. Read-modify-write: the touched spans and the
	// parities. Reconstruct-write: the untouched columns, plus what the first
	// and last columns keep inside the hull.
	rmwReads := last - first + 1 + len(a.devs) - k
	rcwReads := k - (last - first + 1)
	if first != last && head > 0 {
		rcwReads++
	}
	if first != last && tail < su {
		rcwReads++
	}

	// old receives what is read of the data columns, column c at c*su; the
	// parity ranges are read into (or built in) pbuf and qbuf.
	old := a.stripes.get()
	defer a.stripes.put(old)
	pbuf := a.chunks.get()
	defer a.chunks.put(pbuf)
	var qbuf []byte
	if a.level == RAID6 {
		qbuf = a.chunks.get()
		defer a.chunks.put(qbuf)
	}
	// fresh is src's part for touched column c.
	fresh := func(c int) []byte {
		lo, hi := span(c)
		return src[c*su+lo-int(so) : c*su+hi-int(so)]
	}
	f := a.fanout()
	defer f.release()
	// parityIO adds one op (opRead or opWrite) of the parity range per parity
	// member.
	parityIO := func(op memberOp) {
		f.add(memberIO{op: op, dev: a.devs[a.pDev(stripe)], buf: pbuf[plo:phi], off: soff + int64(plo)})
		if qbuf != nil {
			f.add(memberIO{op: op, dev: a.devs[a.qDev(stripe)], buf: qbuf[plo:phi], off: soff + int64(plo)})
		}
	}

	rmw := rmwReads <= rcwReads
	if rmw {
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			f.add(memberIO{op: opRead, dev: a.devs[a.dataDev(stripe, c)], buf: old[c*su+lo : c*su+hi], off: soff + int64(lo)})
		}
		parityIO(opRead)
		// A member this plan needs is failed or unreadable: reconstruct instead.
		rmw = f.wait(p) == nil
		f.reset()
	}
	if rmw {
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			delta := old[c*su+lo : c*su+hi]
			xorSlice(fresh(c), delta)
			fold(c, lo, delta, pbuf, qbuf)
		}
	} else {
		// Read the ranges inside the hull that the request leaves as they are;
		// parity is rebuilt from them and the fresh data.
		keep := func(c, lo, hi int) {
			f.add(memberIO{op: opReadChunk, stripe: stripe, col: c, off: int64(lo), buf: old[c*su+lo : c*su+hi]})
		}
		for c := 0; c < k; c++ {
			lo, hi := plo, plo
			if first <= c && c <= last {
				lo, hi = span(c)
			}
			if plo < lo {
				keep(c, plo, lo)
			}
			if hi < phi {
				keep(c, hi, phi)
			}
		}
		if err := f.wait(p); err != nil {
			return err
		}
		clear(pbuf[plo:phi])
		if qbuf != nil {
			clear(qbuf[plo:phi])
		}
		for _, r := range f.reqs {
			fold(r.col, int(r.off), r.buf, pbuf, qbuf)
		}
		f.reset()
		for c := first; c <= last; c++ {
			lo, _ := span(c)
			fold(c, lo, fresh(c), pbuf, qbuf)
		}
	}

	for c := first; c <= last; c++ {
		lo, _ := span(c)
		f.add(memberIO{op: opWrite, dev: a.devs[a.dataDev(stripe, c)], buf: fresh(c), off: soff + int64(lo)})
	}
	parityIO(opWrite)
	return f.wait(p)
}

// reconstructChunk rebuilds the data chunk at (stripe, col) from the surviving
// devices into out (len = stripeUnit). It reads the whole stripe, treats a
// failed read as an erasure, and decodes in the read buffers with the parity
// Plan picks.
func (a *Array) reconstructChunk(p *sim.Proc, stripe int64, col int, out []byte) error {
	soff := stripe * int64(a.stripeUnit)
	k := a.dataPerStripe()
	f := a.fanout()
	defer f.release()
	for c := 0; c < k; c++ {
		f.add(memberIO{op: opRead, dev: a.devs[a.dataDev(stripe, c)]})
	}
	f.add(memberIO{op: opRead, dev: a.devs[a.pDev(stripe)]})
	if a.level == RAID6 {
		f.add(memberIO{op: opRead, dev: a.devs[a.qDev(stripe)]})
	}
	for i := range f.reqs {
		f.reqs[i].buf, f.reqs[i].off = a.chunks.get(), soff
	}
	defer func() {
		for _, r := range f.reqs {
			a.chunks.put(r.buf)
		}
	}()
	f.wait(p) // a failed read is an erasure, decoded below
	var lost []int
	failed := 0
	for i, r := range f.reqs {
		if r.err != nil {
			failed++
			if i < k {
				lost = append(lost, i)
			}
		}
	}
	useP, useQ, err := Plan(lost, f.reqs[k].err == nil, a.level == RAID6 && f.reqs[k+1].err == nil)
	if err != nil {
		return fmt.Errorf("%w: %d chunks lost in stripe %d", err, failed, stripe)
	}
	var pbuf, qbuf []byte // the syndromes build in the parity read buffers
	if useP {
		pbuf = f.reqs[k].buf
	}
	if useQ {
		qbuf = f.reqs[k+1].buf
	}
	var res [2][]byte
	for i, c := range lost {
		res[i] = f.reqs[c].buf
	}
	for c := 0; c < k; c++ {
		if f.reqs[c].err == nil {
			Fold(c, f.reqs[c].buf, pbuf, qbuf)
		}
	}
	Solve(lost, pbuf, qbuf, res[:len(lost)])
	copy(out, f.reqs[col].buf)
	return nil
}

// Rebuild reconstructs the content of member device idx onto replacement
// (same size), then swaps it into the array.
func (a *Array) Rebuild(p *sim.Proc, idx int, replacement blockdev.Device) error {
	if replacement.Size() != a.devSize {
		return ErrUnevenDevices
	}
	if a.level == RAID0 {
		return errors.New("raid: RAID-0 cannot be rebuilt")
	}
	if a.level == RAID1 {
		buf := make([]byte, 1<<20)
		for off := int64(0); off < a.devSize; off += int64(len(buf)) {
			n := int64(len(buf))
			if off+n > a.devSize {
				n = a.devSize - off
			}
			if err := a.readMirror(p, buf[:n], off); err != nil {
				return err
			}
			if err := replacement.WriteAt(p, buf[:n], off); err != nil {
				return err
			}
		}
		a.devs[idx] = replacement
		return nil
	}
	su := int64(a.stripeUnit)
	stripes := a.devSize / su
	k := a.dataPerStripe()
	buf := a.chunks.get()
	defer a.chunks.put(buf)
	for s := int64(0); s < stripes; s++ {
		// What does device idx hold in stripe s?
		role := -3
		if a.pDev(s) == idx {
			role = -1
		} else if a.level == RAID6 && a.qDev(s) == idx {
			role = -2
		} else {
			for c := 0; c < k; c++ {
				if a.dataDev(s, c) == idx {
					role = c
					break
				}
			}
		}
		if err := a.reconstructInto(p, s, role, buf); err != nil {
			return err
		}
		if err := replacement.WriteAt(p, buf, s*su); err != nil {
			return err
		}
	}
	a.devs[idx] = replacement
	return nil
}

// reconstructInto rebuilds the chunk with the given role (data column, -1=P,
// -2=Q) of a stripe, reading from all other devices.
func (a *Array) reconstructInto(p *sim.Proc, stripe int64, role int, out []byte) error {
	k := a.dataPerStripe()
	soff := stripe * int64(a.stripeUnit)
	f := a.fanout()
	defer f.release()
	for c := 0; c < k; c++ {
		if c != role {
			f.add(memberIO{op: opRead, dev: a.devs[a.dataDev(stripe, c)], buf: a.chunks.get(), off: soff, col: c})
		}
	}
	data := f.reqs[:len(f.reqs):len(f.reqs)] // the data columns read, in column order
	defer func() {
		for _, r := range data {
			a.chunks.put(r.buf)
		}
	}()
	if role >= 0 {
		// A data chunk is P XOR the other data chunks: read P straight into out.
		f.add(memberIO{op: opRead, dev: a.devs[a.pDev(stripe)], buf: out, off: soff})
	}
	if err := f.wait(p); err != nil {
		return err
	}
	// P is the fold of every data column, Q likewise with g^c, and a data
	// chunk is what is left of P once the others are folded out of it.
	pacc, qacc := out, []byte(nil)
	if role == -2 {
		pacc, qacc = nil, out
	}
	if role < 0 {
		clear(out)
	}
	for _, r := range data {
		Fold(r.col, r.buf, pacc, qacc)
	}
	return nil
}

// ScrubResult summarizes a parity scrub.
type ScrubResult struct {
	StripesChecked int64
	Mismatches     []int64 // stripe numbers with bad parity
}

// Scrub verifies P (and Q) parity of every stripe.
func (a *Array) Scrub(p *sim.Proc) (ScrubResult, error) {
	var res ScrubResult
	if a.level < RAID5 {
		return res, errors.New("raid: scrub requires RAID-5/6")
	}
	su := a.stripeUnit
	k := a.dataPerStripe()
	stripes := a.devSize / int64(su)
	data, acc, qacc := a.chunks.get(), a.chunks.get(), a.chunks.get()
	defer func() {
		a.chunks.put(data)
		a.chunks.put(acc)
		a.chunks.put(qacc)
	}()
	var q []byte // the Q accumulator, RAID-6 only
	if a.level == RAID6 {
		q = qacc
	}
	for s := int64(0); s < stripes; s++ {
		soff := s * int64(su)
		clear(acc)
		clear(qacc)
		for c := 0; c < k; c++ {
			if err := a.devs[a.dataDev(s, c)].ReadAt(p, data, soff); err != nil {
				return res, err
			}
			Fold(c, data, acc, q)
		}
		if err := a.devs[a.pDev(s)].ReadAt(p, data, soff); err != nil {
			return res, err
		}
		bad := !bytes.Equal(acc, data)
		if !bad && a.level == RAID6 {
			if err := a.devs[a.qDev(s)].ReadAt(p, data, soff); err != nil {
				return res, err
			}
			bad = !bytes.Equal(qacc, data)
		}
		res.StripesChecked++
		if bad {
			res.Mismatches = append(res.Mismatches, s)
		}
	}
	return res, nil
}
