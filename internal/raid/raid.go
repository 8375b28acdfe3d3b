// Package raid implements software RAID-1 and RAID-5 over simulated block
// devices, with XOR parity. A full stripe that a page cache flushes
// (WriteFrom) keeps its parity as a recipe over the columns it lent
// (chunk.XOR), computed only when something reads it; every other write
// stores parity bytes. Degraded reads reconstruct lost chunks, scrubbing
// verifies parity, and rebuild re-populates a replacement device.
//
// ROS uses a RAID-1 SSD pair for the metadata volume and RAID-5 HDD sets for
// the disc-image write buffer / read cache (§3.3 of the paper). The package
// also holds the P/Q erasure code (codec.go, over GF(2^8) in gf256.go) with
// which internal/image builds parity *disc images* across the 12 discs of a
// tray (§4.7).
package raid

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// Level selects the redundancy scheme of an Array.
type Level int

// Supported RAID levels.
const (
	RAID1 Level = iota
	RAID5
)

func (l Level) String() string {
	if l == RAID1 || l == RAID5 {
		return [...]string{"RAID-1", "RAID-5"}[l]
	}
	return fmt.Sprintf("RAID(%d)", int(l))
}

// Array-level errors.
var (
	ErrTooFewDevices = errors.New("raid: too few devices for level")
	ErrUnevenDevices = errors.New("raid: devices must have equal size")
	ErrTooManyFailed = errors.New("raid: too many failed devices")
)

// Array is a RAID volume over equal-sized devices. All methods must be
// called from simulation processes.
type Array struct {
	level      Level
	devs       []blockdev.Device
	stripeUnit int
	devSize    int64

	// Scratch for parity, partial-stripe writes (and what WriteFrom copies for
	// them) and reconstruction. Member devices copy a booked buffer before
	// returning (blockdev.Device), so a buffer goes back on its list as soon
	// as the I/O that used it is done.
	chunks  bufList // stripeUnit bytes each
	stripes bufList // stripeUnit * dataPerStripe bytes each

	tables []*stripeTable // writeParity's tables not in use
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

// batch is one fan-out of member I/Os. A member is a clock
// (blockdev.Device.Book), so the legs are booked in index order and the
// caller sleeps once, until the last of them ends; a leg that fails ends
// when it would have started. A data-chunk read booked by read that fails is
// not an error yet: wait rebuilds the chunk from the other members, from the
// moment the read would have started.
type batch struct {
	a    *Array
	end  time.Duration
	err  error      // the lowest-index leg's that failed
	lost []lostRead // read's reads that failed, in index order
}

// lostRead is a read of dst at offset coff of member dev's chunk of a stripe
// that failed with err at at.
type lostRead struct {
	stripe int64
	dev    int
	coff   int64
	dst    []byte
	at     time.Duration
	err    error
}

// batch opens a batch of n legs on p. A batch of two or more yields once
// first, so that its legs arrive behind the events already due now, as a
// fan-out's children do (sim.Proc.Fork starts them as such events): that
// keeps the order in which accesses reach each member, and with it every
// service time.
func (a *Array) batch(p *sim.Proc, n int) batch {
	if n > 1 {
		p.Yield()
	}
	return batch{a: a, end: p.Now()}
}

// book books one leg and returns its error.
func (b *batch) book(dev blockdev.Device, acc blockdev.Access) error {
	t, err := dev.Book(acc)
	b.end = max(b.end, t)
	if b.err == nil {
		b.err = err
	}
	return err
}

// read books a read of dst at offset coff of data chunk (stripe, col).
func (b *batch) read(stripe int64, col int, coff int64, dst []byte) {
	a, dev := b.a, b.a.dataDev(stripe, col)
	t, err := a.devs[dev].Book(blockdev.Access{Off: stripe*int64(a.stripeUnit) + coff, Buf: dst})
	if err != nil {
		b.lost = append(b.lost, lostRead{stripe, dev, coff, dst, t, err})
	}
	b.end = max(b.end, t)
}

// wait sleeps until the last leg ends and returns the error of the
// lowest-index leg that failed or could not be rebuilt (rebuild).
func (b *batch) wait(p *sim.Proc) error {
	if len(b.lost) > 0 {
		b.err = b.a.rebuild(p, b.lost)
	}
	if b.end > p.Now() {
		p.Sleep(b.end - p.Now())
	}
	return b.err
}

// rebuild reconstructs each lost read's chunk on a child of its own and
// fills the read's dst. A reconstruction books its reads when its read
// failed: as its child wakes there if that is later than now, else one yield
// from now, like any fan-out that starts now (the children start one yield
// after p, and a lone one, run on p, yields first).
func (a *Array) rebuild(p *sim.Proc, lost []lostRead) error {
	if len(lost) == 1 && lost[0].at <= p.Now() {
		p.Yield()
	}
	return p.Fork("raid-degraded", len(lost), func(sp *sim.Proc, i int) error {
		l, full := &lost[i], a.chunks.get()
		defer a.chunks.put(full)
		if l.at > sp.Now() {
			sp.Sleep(l.at - sp.Now())
		}
		b := batch{a: a, end: sp.Now()}
		err := a.reconstruct(&b, l.stripe, l.dev, full)
		b.wait(sp)
		if err != nil {
			// Wrap the reconstruction error (not the device error) so callers
			// can match ErrTooManyFailed on beyond-bound loss.
			return fmt.Errorf("degraded read failed: %w (original: %v)", err, l.err)
		}
		copy(l.dst, full[l.coff:])
		return nil
	})
}

// stripeWrite is one stripe of a write: its bytes and their offset in the
// stripe, or, for a full stripe a chunk store lent, its columns and the
// recipe of its parity. lent says they came from a chunk store: lent columns,
// or a partial stripe's copy in stripe scratch.
type stripeWrite struct {
	stripe int64
	off    int64
	buf    []byte
	cols   [][]chunk.Piece
	parity []chunk.Piece
	lent   bool
}

// stripeTable holds the stripes of one write, which a sim.Proc.Fork runs
// concurrently, stripe i on child i: a stripe is a fan-out of its own, and a
// partial stripe's writes wait for its reads. Tables come from the array's
// free list, like its buffers, so a write allocates nothing once the list has
// grown to the peak number in flight, but the terms of its parity recipes.
type stripeTable struct {
	a      *Array
	ws     []stripeWrite
	pieces []chunk.Piece                   // the lent full stripes' columns, back to back
	cols   [][]chunk.Piece                 // the same, one run per column
	parity []chunk.Piece                   // their parity recipes, back to back
	run    func(sp *sim.Proc, i int) error // write, bound once
}

// write writes stripe i on sp.
func (t *stripeTable) write(sp *sim.Proc, i int) error {
	a, w := t.a, &t.ws[i]
	if w.cols != nil || len(w.buf) == a.stripes.size {
		return a.writeFullStripe(sp, w.stripe, w.buf, w.cols, w.parity)
	}
	err := a.writePartialStripe(sp, w.stripe, w.off, w.buf)
	if w.lent {
		a.stripes.put(w.buf[:cap(w.buf)])
	}
	return err
}

// New assembles an array. stripeUnit is the per-device chunk size (ignored
// for RAID-1); 64 KB if zero.
func New(env *sim.Env, level Level, devs []blockdev.Device, stripeUnit int) (*Array, error) {
	var min int
	switch level {
	case RAID1:
		min = 2
	case RAID5:
		min = 3
	default:
		return nil, fmt.Errorf("raid: unsupported level %s", level)
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
	a := &Array{level: level, devs: devs, stripeUnit: stripeUnit, devSize: size}
	a.chunks.size = stripeUnit
	a.stripes.size = stripeUnit * a.dataPerStripe()
	return a, nil
}

// Devices returns the member devices (index order matters for rebuild).
func (a *Array) Devices() []blockdev.Device { return a.devs }

// dataPerStripe returns the number of data chunks per stripe.
func (a *Array) dataPerStripe() int {
	if a.level == RAID1 {
		return 1
	}
	return len(a.devs) - 1
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

// dataDev maps the col-th data chunk of a stripe to a device index: the
// devices in order, less the parity device.
func (a *Array) dataDev(stripe int64, col int) int {
	if col >= a.pDev(stripe) {
		return col + 1
	}
	return col
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
	su := int64(a.stripeUnit)
	b := a.batch(p, int((off+int64(len(buf))-1)/su-off/su+1))
	for n := 0; n < len(buf); {
		co := (off + int64(n)) % su
		run := int(min(su-co, int64(len(buf)-n)))
		stripe, col := a.chunkLoc((off + int64(n)) / su)
		b.read(stripe, col, co, buf[n:n+run])
		n += run
	}
	return b.wait(p)
}

// readMirror serves RAID-1 reads from the first healthy device.
func (a *Array) readMirror(p *sim.Proc, buf []byte, off int64) error {
	var last error
	for _, d := range a.devs {
		if last = d.ReadAt(p, buf, off); last == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: all mirrors failed: %v", ErrTooManyFailed, last)
}

// WriteAt writes buf at logical offset off, updating parity.
func (a *Array) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return a.write(p, buf, nil, off, int64(len(buf)))
}

// WriteFrom writes s's bytes [off, off+n) at logical offset off, for a page
// cache flushing its store (pagecache.Backend). The range is any run of dirty
// pages, down to one 4 KB page inside a column. It takes every byte before it
// first yields: a full stripe's columns are lent by s to the data members,
// which keep them (blockdev.Access.Pieces), and the parity member keeps the
// recipe of their XOR; everything else, a sub-chunk run included, is copied
// out of s into stripe scratch and written through writePartialStripe, which
// reads only what its parity plan needs (a recipe parity's window computed
// into scratch) and then stores parity bytes. A partial stripe is never
// lent, not even its whole-chunk columns, because it is a region still being
// written, and a lent chunk makes each later small write to it copy the
// whole chunk.
func (a *Array) WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error {
	return a.write(p, nil, s, off, n)
}

// write stores [off, off+n) from buf, or from s if s is set.
func (a *Array) write(p *sim.Proc, buf []byte, s *chunk.Store, off, n int64) error {
	if off < 0 || off+n > a.Size() {
		return fmt.Errorf("%w: off=%d len=%d size=%d", blockdev.ErrOutOfRange, off, n, a.Size())
	}
	if a.level == RAID5 {
		return a.writeParity(p, buf, s, off, n)
	}
	if s != nil {
		buf = make([]byte, n)
		s.ReadAt(buf, off)
	}
	b := a.batch(p, len(a.devs))
	for _, d := range a.devs {
		b.book(d, blockdev.Access{Write: true, Off: off, Buf: buf})
	}
	return b.wait(p)
}

// writeParity handles RAID-5 writes of [off, off+n) from buf or s stripe
// by stripe: full-stripe writes compute parity directly, or, from s, as a
// recipe over the lent columns; partial writes read only what their plan
// needs (writePartialStripe). From s, a full stripe's columns are lent and a
// partial stripe is copied into stripe scratch, all before the first yield.
func (a *Array) writeParity(p *sim.Proc, buf []byte, s *chunk.Store, off, n int64) error {
	su := int64(a.stripeUnit)
	k := int64(a.dataPerStripe())
	stripeBytes := su * k
	var t *stripeTable
	if m := len(a.tables); m > 0 {
		t, a.tables = a.tables[m-1], a.tables[:m-1]
	} else {
		t = &stripeTable{a: a}
		t.run = t.write
	}
	for pos := int64(0); pos < n; {
		loff := off + pos
		w := stripeWrite{stripe: loff / stripeBytes, off: loff % stripeBytes, lent: s != nil}
		run := min(stripeBytes-w.off, n-pos)
		switch {
		case run == stripeBytes && s != nil:
			first := len(t.cols)
			for c := int64(0); c < k; c++ {
				at := len(t.pieces)
				t.pieces = s.Lend(t.pieces, loff+c*su, su)
				t.cols = append(t.cols, t.pieces[at:len(t.pieces):len(t.pieces)])
			}
			w.cols = t.cols[first:len(t.cols):len(t.cols)]
			at := len(t.parity)
			t.parity = chunk.XOR(t.parity, int(su), w.cols)
			w.parity = t.parity[at:len(t.parity):len(t.parity)]
		case s != nil:
			w.buf = a.stripes.get()[:run]
			s.ReadAt(w.buf, loff)
		default:
			w.buf = buf[pos : pos+run]
		}
		t.ws = append(t.ws, w)
		pos += run
	}
	err := p.Fork("raid-stripe", len(t.ws), t.run)
	clear(t.ws)
	clear(t.pieces)
	clear(t.cols)
	clear(t.parity)
	t.ws, t.pieces, t.cols, t.parity = t.ws[:0], t.pieces[:0], t.cols[:0], t.parity[:0]
	a.tables = append(a.tables, t)
	return err
}

// writeFullStripe writes a whole stripe and fresh parity. The stripe is
// buf, a WriteAt caller's bytes, which the data members copy and whose parity
// is XORed into scratch and written by copy; or, if buf is nil, cols, pieces
// lent by a chunk store, one run per column, which the data members keep
// (blockdev.Access.Pieces), as the parity member keeps parity, the recipe of
// their XOR (chunk.XOR): its bytes are computed only when something reads
// them.
func (a *Array) writeFullStripe(p *sim.Proc, stripe int64, buf []byte, cols [][]chunk.Piece, parity []chunk.Piece) error {
	su := a.stripeUnit
	soff := stripe * int64(su)
	par := blockdev.Access{Write: true, Off: soff, Pieces: parity}
	if buf != nil {
		par.Buf = a.chunks.get()
		defer a.chunks.put(par.Buf)
		copy(par.Buf, buf[:su])
		for col := 1; col < a.dataPerStripe(); col++ {
			xorSlice(buf[col*su:(col+1)*su], par.Buf)
		}
	}
	b := a.batch(p, len(a.devs))
	for col := 0; col < a.dataPerStripe(); col++ {
		acc := blockdev.Access{Write: true, Off: soff}
		if buf != nil {
			acc.Buf = buf[col*su : (col+1)*su]
		} else {
			acc.Pieces = cols[col]
		}
		b.book(a.devs[a.dataDev(stripe, col)], acc)
	}
	b.book(a.devs[a.pDev(stripe)], par)
	return b.wait(p)
}

// writePartialStripe stores a sub-stripe write and brings parity up to date
// over the in-chunk range the write touches, moving only the member bytes the
// request's geometry calls for. Two plans, chosen by which reads fewer
// members:
//
//   - read-modify-write: read the old data the request overwrites and the old
//     parity over the same range, then P ^= old ^ new;
//   - reconstruct-write: read what the request does not overwrite and compute
//     parity afresh.
//
// Both write only the touched data ranges and the parity range. The
// read-modify-write reads go straight to the members; when one of them is
// failed or unreadable the write falls back to reconstruct-write, whose reads
// go through batch.read and so reconstruct. A write to a failed member then
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
	// parity. Reconstruct-write: the untouched columns, plus what the first
	// and last columns keep inside the hull.
	rmwReads := last - first + 2
	rcwReads := k - (last - first + 1)
	if first != last && head > 0 {
		rcwReads++
	}
	if first != last && tail < su {
		rcwReads++
	}

	// old receives what is read of the data columns, column c at c*su; the
	// parity range is read into (or built in) pbuf, by the access par.
	old := a.stripes.get()
	defer a.stripes.put(old)
	pbuf := a.chunks.get()
	defer a.chunks.put(pbuf)
	pdev := a.devs[a.pDev(stripe)]
	par := blockdev.Access{Off: soff + int64(plo), Buf: pbuf[plo:phi]}

	rmw := rmwReads <= rcwReads
	if rmw {
		b := a.batch(p, rmwReads)
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			b.book(a.devs[a.dataDev(stripe, c)], blockdev.Access{Off: soff + int64(lo), Buf: old[c*su+lo : c*su+hi]})
		}
		b.book(pdev, par)
		// A member this plan needs is failed or unreadable: reconstruct instead.
		rmw = b.wait(p) == nil
	}
	if rmw {
		xorSlice(src, old[so:end]) // old ^ new, column c at c*su as in the stripe
		for c := first; c <= last; c++ {
			lo, hi := span(c)
			xorSlice(old[c*su+lo:c*su+hi], pbuf[lo:])
		}
	} else {
		// Read the ranges inside the hull that the request leaves as they are,
		// lay the fresh data beside them and rebuild parity over the hull.
		r := a.batch(p, rcwReads)
		for c := 0; c < k; c++ {
			lo, hi := plo, plo
			if first <= c && c <= last {
				lo, hi = span(c)
			}
			if plo < lo {
				r.read(stripe, c, int64(plo), old[c*su+plo:c*su+lo])
			}
			if hi < phi {
				r.read(stripe, c, int64(hi), old[c*su+hi:c*su+phi])
			}
		}
		if err := r.wait(p); err != nil {
			return err
		}
		copy(old[so:end], src)
		clear(pbuf[plo:phi])
		for c := 0; c < k; c++ {
			xorSlice(old[c*su+plo:c*su+phi], pbuf[plo:])
		}
	}

	b := a.batch(p, last-first+2)
	for c := first; c <= last; c++ {
		lo, hi := span(c)
		b.book(a.devs[a.dataDev(stripe, c)], blockdev.Access{Write: true, Off: soff + int64(lo), Buf: src[c*su+lo-int(so) : c*su+hi-int(so)]})
	}
	par.Write = true
	b.book(pdev, par)
	return b.wait(p)
}

// reconstruct rebuilds member lost's chunk of a stripe into out (len =
// stripeUnit). With one parity member, that chunk is the XOR of every other
// member's: reconstruct books a read of each into b and XORs it into out as
// it is booked (the bytes are there once booked, and the caller sleeps until
// b ends). A read that fails is a second loss, beyond the code.
func (a *Array) reconstruct(b *batch, stripe int64, lost int, out []byte) error {
	soff := stripe * int64(a.stripeUnit)
	buf := a.chunks.get()
	defer a.chunks.put(buf)
	clear(out)
	failed := 1
	for d, dev := range a.devs {
		switch {
		case d == lost:
		case b.book(dev, blockdev.Access{Off: soff, Buf: buf}) != nil:
			failed++
		default:
			xorSlice(buf, out)
		}
	}
	if failed > 1 {
		return fmt.Errorf("%w: %d chunks lost in stripe %d", ErrTooManyFailed, failed, stripe)
	}
	return nil
}

// Rebuild reconstructs the content of member device idx onto replacement
// (same size), then swaps it into the array. A RAID-5 member is rebuilt
// stripe by stripe (reconstruct); another member that cannot be read fails it
// with ErrTooManyFailed.
func (a *Array) Rebuild(p *sim.Proc, idx int, replacement blockdev.Device) error {
	if replacement.Size() != a.devSize {
		return ErrUnevenDevices
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
	buf := a.chunks.get()
	defer a.chunks.put(buf)
	for s := int64(0); s < a.devSize/su; s++ {
		b := a.batch(p, len(a.devs)-1)
		err := a.reconstruct(&b, s, idx, buf)
		b.wait(p)
		if err != nil {
			return err
		}
		if err := replacement.WriteAt(p, buf, s*su); err != nil {
			return err
		}
	}
	a.devs[idx] = replacement
	return nil
}

// ScrubResult summarizes a parity scrub.
type ScrubResult struct {
	StripesChecked int64
	Mismatches     []int64 // stripe numbers with bad parity
}

// Scrub verifies the parity of every stripe.
func (a *Array) Scrub(p *sim.Proc) (ScrubResult, error) {
	var res ScrubResult
	if a.level != RAID5 {
		return res, errors.New("raid: scrub requires RAID-5")
	}
	su := a.stripeUnit
	k := a.dataPerStripe()
	stripes := a.devSize / int64(su)
	data, acc := a.chunks.get(), a.chunks.get()
	defer a.chunks.put(data)
	defer a.chunks.put(acc)
	for s := int64(0); s < stripes; s++ {
		soff := s * int64(su)
		clear(acc)
		for c := 0; c < k; c++ {
			if err := a.devs[a.dataDev(s, c)].ReadAt(p, data, soff); err != nil {
				return res, err
			}
			xorSlice(data, acc)
		}
		if err := a.devs[a.pDev(s)].ReadAt(p, data, soff); err != nil {
			return res, err
		}
		res.StripesChecked++
		if !bytes.Equal(acc, data) {
			res.Mismatches = append(res.Mismatches, s)
		}
	}
	return res, nil
}
