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

// parallel runs the fns as concurrent simulation processes and waits for all
// of them, returning the first error.
func parallel(p *sim.Proc, fns ...func(sp *sim.Proc) error) error {
	if len(fns) == 1 {
		return fns[0](p)
	}
	env := p.Env()
	comps := make([]*sim.Completion[struct{}], len(fns))
	for i, fn := range fns {
		fn := fn
		comps[i] = sim.NewCompletion[struct{}](env)
		c := comps[i]
		env.Go("raid-io", func(sp *sim.Proc) {
			c.Resolve(struct{}{}, fn(sp))
		})
	}
	var first error
	for _, c := range comps {
		if _, err := c.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	su := int64(a.stripeUnit)
	var jobs []func(sp *sim.Proc) error
	for n := 0; n < len(buf); {
		chunk := (off + int64(n)) / su
		co := (off + int64(n)) % su
		run := int(su - co)
		if run > len(buf)-n {
			run = len(buf) - n
		}
		stripe, col := a.chunkLoc(chunk)
		dst := buf[n : n+run]
		coff := co
		jobs = append(jobs, func(sp *sim.Proc) error {
			return a.readChunk(sp, stripe, col, dst, coff)
		})
		n += run
	}
	return parallel(p, jobs...)
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
	if a.level == RAID0 {
		return a.writeStriped(p, buf, off)
	}
	jobs := make([]func(sp *sim.Proc) error, len(a.devs))
	for i, d := range a.devs {
		jobs[i] = func(sp *sim.Proc) error { return d.WriteAt(sp, buf, off) }
	}
	return parallel(p, jobs...)
}

// writeStriped handles RAID-0.
func (a *Array) writeStriped(p *sim.Proc, buf []byte, off int64) error {
	su := int64(a.stripeUnit)
	var jobs []func(sp *sim.Proc) error
	for n := 0; n < len(buf); {
		chunk := (off + int64(n)) / su
		co := (off + int64(n)) % su
		run := int(su - co)
		if run > len(buf)-n {
			run = len(buf) - n
		}
		stripe, col := a.chunkLoc(chunk)
		dev := a.devs[a.dataDev(stripe, col)]
		src := buf[n : n+run]
		doff := stripe*su + co
		jobs = append(jobs, func(sp *sim.Proc) error { return dev.WriteAt(sp, src, doff) })
		n += run
	}
	return parallel(p, jobs...)
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
	var jobs []func(sp *sim.Proc) error
	var pieces [][]byte // the full stripes' columns, back to back
	for pos := int64(0); pos < n; {
		loff := off + pos
		stripe, so := loff/stripeBytes, loff%stripeBytes
		run := min(stripeBytes-so, n-pos)
		switch {
		case run == stripeBytes:
			first := len(pieces)
			for c := int64(0); c < k; c++ {
				if s != nil {
					pieces = s.Lend(pieces, loff+c*su, su)
				} else {
					pieces = append(pieces, buf[pos+c*su:pos+(c+1)*su])
				}
			}
			cols := pieces[first:len(pieces):len(pieces)]
			jobs = append(jobs, func(sp *sim.Proc) error { return a.writeFullStripe(sp, stripe, cols, s != nil) })
		case s != nil:
			scratch := a.stripes.get()
			s.ReadAt(scratch[:run], loff)
			jobs = append(jobs, func(sp *sim.Proc) error {
				defer a.stripes.put(scratch)
				return a.writePartialStripe(sp, stripe, so, scratch[:run])
			})
		default:
			src := buf[pos : pos+run]
			jobs = append(jobs, func(sp *sim.Proc) error { return a.writePartialStripe(sp, stripe, so, src) })
		}
		pos += run
	}
	return parallel(p, jobs...)
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
	jobs := make([]func(sp *sim.Proc) error, 0, a.dataPerStripe()+2)
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
				XorSlice(pc, pbuf[at:])
				if qbuf != nil {
					mulSliceXor(gfPow2(col), pc, qbuf[at:])
				}
			}
			at += len(pc)
		}
		dev, cp := a.devs[a.dataDev(stripe, col)], pieces[:i]
		if lent {
			jobs = append(jobs, func(sp *sim.Proc) error { return dev.Adopt(sp, soff, cp) })
		} else {
			jobs = append(jobs, func(sp *sim.Proc) error { return dev.WriteAt(sp, cp[0], soff) })
		}
		pieces = pieces[i:]
	}
	pd := a.devs[a.pDev(stripe)]
	jobs = append(jobs, func(sp *sim.Proc) error { return pd.WriteAt(sp, pbuf, soff) })
	if qbuf != nil {
		qd := a.devs[a.qDev(stripe)]
		jobs = append(jobs, func(sp *sim.Proc) error { return qd.WriteAt(sp, qbuf, soff) })
	}
	return parallel(p, jobs...)
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
	// fold accumulates data, which sits at in-chunk offset at of column col,
	// into both parities.
	fold := func(col, at int, data []byte) {
		XorSlice(data, pbuf[at:at+len(data)])
		if qbuf != nil {
			mulSliceXor(gfPow2(col), data, qbuf[at:at+len(data)])
		}
	}
	jobs := make([]func(sp *sim.Proc) error, 0, k+2)
	// parityJobs queues one access (a Device method) of the parity range per
	// parity member.
	parityJobs := func(access func(d blockdev.Device, sp *sim.Proc, buf []byte, off int64) error) {
		pd := a.devs[a.pDev(stripe)]
		jobs = append(jobs, func(sp *sim.Proc) error { return access(pd, sp, pbuf[plo:phi], soff+int64(plo)) })
		if qbuf != nil {
			qd := a.devs[a.qDev(stripe)]
			jobs = append(jobs, func(sp *sim.Proc) error { return access(qd, sp, qbuf[plo:phi], soff+int64(plo)) })
		}
	}

	rmw := rmwReads <= rcwReads
	if rmw {
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			dev, dst := a.devs[a.dataDev(stripe, c)], old[c*su+lo:c*su+hi]
			jobs = append(jobs, func(sp *sim.Proc) error { return dev.ReadAt(sp, dst, soff+int64(lo)) })
		}
		parityJobs(blockdev.Device.ReadAt)
		// A member this plan needs is failed or unreadable: reconstruct instead.
		rmw = parallel(p, jobs...) == nil
		jobs = jobs[:0]
	}
	if rmw {
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			delta := old[c*su+lo : c*su+hi]
			XorSlice(fresh(c), delta)
			fold(c, lo, delta)
		}
	} else {
		// kept visits the ranges inside the hull that the request leaves as
		// they are; parity is rebuilt from them and the fresh data.
		kept := func(visit func(c, lo, hi int)) {
			for c := 0; c < k; c++ {
				lo, hi := plo, plo
				if first <= c && c <= last {
					lo, hi = span(c)
				}
				if plo < lo {
					visit(c, plo, lo)
				}
				if hi < phi {
					visit(c, hi, phi)
				}
			}
		}
		kept(func(c, lo, hi int) {
			dst := old[c*su+lo : c*su+hi]
			jobs = append(jobs, func(sp *sim.Proc) error { return a.readChunk(sp, stripe, c, dst, int64(lo)) })
		})
		if err := parallel(p, jobs...); err != nil {
			return err
		}
		jobs = jobs[:0]
		clear(pbuf[plo:phi])
		if qbuf != nil {
			clear(qbuf[plo:phi])
		}
		kept(func(c, lo, hi int) { fold(c, lo, old[c*su+lo:c*su+hi]) })
		for c := first; c <= last; c++ {
			lo, _ := span(c)
			fold(c, lo, fresh(c))
		}
	}

	for c := first; c <= last; c++ {
		lo, _ := span(c)
		dev, data := a.devs[a.dataDev(stripe, c)], fresh(c)
		jobs = append(jobs, func(sp *sim.Proc) error { return dev.WriteAt(sp, data, soff+int64(lo)) })
	}
	parityJobs(blockdev.Device.WriteAt)
	return parallel(p, jobs...)
}

// reconstructChunk rebuilds the data chunk at (stripe, col) from surviving
// devices into out (len = stripeUnit).
func (a *Array) reconstructChunk(p *sim.Proc, stripe int64, col int, out []byte) error {
	su := a.stripeUnit
	soff := stripe * int64(su)
	k := a.dataPerStripe()
	chunks := make([]stripeChunk, 0, len(a.devs))
	for c := 0; c < k; c++ {
		chunks = append(chunks, stripeChunk{col: c, dev: a.dataDev(stripe, c)})
	}
	chunks = append(chunks, stripeChunk{col: -1, dev: a.pDev(stripe)})
	if a.level == RAID6 {
		chunks = append(chunks, stripeChunk{col: -2, dev: a.qDev(stripe)})
	}
	jobs := make([]func(sp *sim.Proc) error, len(chunks))
	for i := range chunks {
		i := i
		chunks[i].data = a.chunks.get()
		jobs[i] = func(sp *sim.Proc) error {
			err := a.devs[chunks[i].dev].ReadAt(sp, chunks[i].data, soff)
			chunks[i].ok = err == nil
			return nil // failures handled by erasure decode below
		}
	}
	defer func() {
		for i := range chunks {
			a.chunks.put(chunks[i].data)
		}
	}()
	if err := parallel(p, jobs...); err != nil {
		return err
	}
	var lost []int // indices into chunks
	for i := range chunks {
		if !chunks[i].ok {
			lost = append(lost, i)
		}
	}
	maxLost := 1
	if a.level == RAID6 {
		maxLost = 2
	}
	if len(lost) > maxLost {
		return fmt.Errorf("%w: %d chunks lost in stripe %d", ErrTooManyFailed, len(lost), stripe)
	}
	if err := decodeStripe(chunks, k); err != nil {
		return err
	}
	for i := range chunks {
		if chunks[i].col == col {
			copy(out, chunks[i].data)
			return nil
		}
	}
	return fmt.Errorf("raid: column %d not found", col)
}

// stripeChunk is one chunk of a stripe during reconstruction: a data column
// (col >= 0), the P chunk (col = -1) or the Q chunk (col = -2).
type stripeChunk struct {
	col  int
	dev  int
	data []byte
	ok   bool
}

// decodeStripe fills in the missing chunks (marked !ok) using P/Q. chunks
// holds k data columns followed by P (col=-1) and optionally Q (col=-2). A
// lost chunk's buffer has unspecified contents on entry; every case computes
// in place, seeding the accumulator by copy instead of clearing it.
func decodeStripe(chunks []stripeChunk, k int) error {
	var lostData []int
	lostP, lostQ := false, false
	for i := range chunks {
		if chunks[i].ok {
			continue
		}
		switch chunks[i].col {
		case -1:
			lostP = true
		case -2:
			lostQ = true
		default:
			lostData = append(lostData, i)
		}
	}
	find := func(col int) []byte {
		for i := range chunks {
			if chunks[i].col == col {
				return chunks[i].data
			}
		}
		return nil
	}
	pbuf, qbuf := find(-1), find(-2)
	// xorCols accumulates data columns first..k-1, except x and y, into dst;
	// mulCols does the same with each column's Q coefficient g^c.
	xorCols := func(dst []byte, first, x, y int) {
		for c := first; c < k; c++ {
			if c != x && c != y {
				XorSlice(find(c), dst)
			}
		}
	}
	mulCols := func(dst []byte, first, x, y int) {
		for c := first; c < k; c++ {
			if c != x && c != y {
				mulSliceXor(gfPow2(c), find(c), dst)
			}
		}
	}
	// Column 0 seeds a recomputed parity (its Q coefficient is g^0 = 1).
	recomputeP := func() {
		copy(pbuf, find(0))
		xorCols(pbuf, 1, -1, -1)
	}

	switch {
	case len(lostData) == 0:
		// Only parity lost: recompute (needed for scrub/rebuild paths).
		if lostP {
			recomputeP()
		}
		if lostQ && qbuf != nil {
			copy(qbuf, find(0))
			mulCols(qbuf, 1, -1, -1)
		}
	case len(lostData) == 1 && !lostP:
		// Single data loss with P available: XOR of everything else.
		d := chunks[lostData[0]].data
		copy(d, pbuf)
		xorCols(d, 0, chunks[lostData[0]].col, -1)
	case len(lostData) == 1 && lostP:
		// Data + P lost: recover data via Q, then recompute P.
		if qbuf == nil {
			return ErrTooManyFailed
		}
		x := chunks[lostData[0]].col
		d := chunks[lostData[0]].data
		// Qx = Q ^ sum_{c != x} g^c * Dc ; Dx = Qx / g^x
		copy(d, qbuf)
		mulCols(d, 0, x, -1)
		inv := gfInv(gfPow2(x))
		for i := range d {
			d[i] = gfMul(d[i], inv)
		}
		recomputeP()
	case len(lostData) == 2:
		// Two data chunks lost: solve 2x2 system with P and Q.
		if qbuf == nil || lostP || lostQ {
			return ErrTooManyFailed
		}
		x, y := chunks[lostData[0]].col, chunks[lostData[1]].col
		dx, dy := chunks[lostData[0]].data, chunks[lostData[1]].data
		// Pxy = P ^ sum_{c!=x,y} Dc is built in dy and
		// Qxy = Q ^ sum_{c!=x,y} g^c Dc in dx; the solve is element-wise, so it
		// runs in place.
		copy(dy, pbuf)
		xorCols(dy, 0, x, y)
		copy(dx, qbuf)
		mulCols(dx, 0, x, y)
		// Dx = (g^y * Pxy ^ Qxy) / (g^x ^ g^y) ; Dy = Pxy ^ Dx
		gx, gy := gfPow2(x), gfPow2(y)
		denom := gfInv(gx ^ gy)
		for i := range dx {
			dx[i] = gfMul(gfMul(gy, dy[i])^dx[i], denom)
		}
		XorSlice(dx, dy)
	default:
		return ErrTooManyFailed
	}
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
	data := make([][]byte, k)
	jobs := make([]func(sp *sim.Proc) error, 0, k)
	for c := 0; c < k; c++ {
		if c == role {
			continue
		}
		buf := a.chunks.get()
		data[c] = buf
		dev := a.devs[a.dataDev(stripe, c)]
		jobs = append(jobs, func(sp *sim.Proc) error { return dev.ReadAt(sp, buf, soff) })
	}
	defer func() {
		for _, buf := range data {
			if buf != nil {
				a.chunks.put(buf)
			}
		}
	}()
	if role >= 0 {
		// A data chunk is P XOR the other data chunks: read P straight into out.
		pd := a.devs[a.pDev(stripe)]
		jobs = append(jobs, func(sp *sim.Proc) error { return pd.ReadAt(sp, out, soff) })
	}
	if err := parallel(p, jobs...); err != nil {
		return err
	}
	switch {
	case role == -1: // P = XOR of data
		copy(out, data[0])
		for c := 1; c < k; c++ {
			XorSlice(data[c], out)
		}
	case role == -2: // Q = sum g^c Dc, and g^0 = 1
		copy(out, data[0])
		for c := 1; c < k; c++ {
			mulSliceXor(gfPow2(c), data[c], out)
		}
	default: // data chunk via P
		for c := 0; c < k; c++ {
			if c != role {
				XorSlice(data[c], out)
			}
		}
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
	for s := int64(0); s < stripes; s++ {
		soff := s * int64(su)
		for c := 0; c < k; c++ {
			if err := a.devs[a.dataDev(s, c)].ReadAt(p, data, soff); err != nil {
				return res, err
			}
			if c == 0 {
				// Column 0 seeds both accumulators (its Q coefficient is 1).
				copy(acc, data)
				if a.level == RAID6 {
					copy(qacc, data)
				}
				continue
			}
			XorSlice(data, acc)
			if a.level == RAID6 {
				mulSliceXor(gfPow2(c), data, qacc)
			}
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
