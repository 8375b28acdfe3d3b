// Package chunk is the sparse byte store under every simulated byte tier:
// the page cache (pagecache.Volume), block devices (blockdev.Disk) and
// optical discs (optical.Disc). Memory is taken in Size-byte chunks, only for
// chunks that hold something, so a 4 TB disk or a 25 GB disc costs what was
// written to it.
//
// Chunks can be passed between stores by reference. Lend hands out read-only
// pieces of a store's chunks and marks those chunks shared; Adopt installs a
// piece that is exactly one chunk at a chunk boundary by reference (and
// shared). A shorter piece at a chunk boundary, onto a chunk the store does
// not hold, is kept by reference too, as a recipe that reads as the piece
// zero-extended (an image's last partial chunk); any other piece is copied.
// A shared chunk is never written in place: WriteAt, FlipByte and Truncate
// copy it first. So a burned disc image and the buffer slot it was burned
// from hold one copy of their bytes, and no later write or media fault on
// either side reaches the other.
//
// A chunk can also be a recipe: a whole chunk whose bytes are the XOR of a
// few lent pieces, each placed from the chunk's start and zero past its end
// (XOR builds them; an image parity chunk is one, and an adopted short piece
// is a recipe of the piece's own terms). A store keeps a recipe by reference
// and computes its bytes only when they are read: ReadAt computes into the
// caller's buffer, Lend passes the recipe on as a recipe, and a write, flip
// or mid-chunk truncation first materialises the chunk. A recipe occupies a
// few dozen bytes of references, and it keeps the chunks it refers to alive,
// which their own stores (the data images) normally do anyway.
//
// A Store is not safe for concurrent use; its zero value is empty and ready.
package chunk

import (
	"bytes"
	"crypto/subtle"
)

// Size is the allocation and sharing granularity.
const Size = 64 << 10

// zeros backs the pieces lent for never-written chunks. Nothing writes to it.
var zeros [Size]byte

// term is one source of a recipe: b, placed at offset at of the chunk.
type term struct {
	at int
	b  []byte
}

// recipe is a chunk whose bytes are the XOR of its terms, zero where no term
// reaches. Its terms are lent pieces, which never change.
type recipe []term

// xorAt xors the recipe's bytes [lo, lo+len(dst)) into dst.
func (r recipe) xorAt(dst []byte, lo int) {
	for _, t := range r {
		if s, e := max(lo, t.at), min(lo+len(dst), t.at+len(t.b)); s < e {
			subtle.XORBytes(dst[s-lo:e-lo], dst[s-lo:e-lo], t.b[s-t.at:e-t.at])
		}
	}
}

// Piece is a read-only run of lent bytes: a slice of a stored chunk, or a
// window of a recipe chunk, whose bytes are computed when read.
type Piece struct {
	b     []byte // the bytes, if r is nil
	r     recipe // else the recipe, and the piece is its bytes [lo, lo+n)
	lo, n int
}

// PieceOf makes a piece of b. Adopt may keep it by reference (a whole
// aligned chunk of it, or all of a short b at a chunk boundary), so nothing
// may write to b afterwards.
func PieceOf(b []byte) Piece { return Piece{b: b} }

// Len returns the piece's length in bytes.
func (pc Piece) Len() int {
	if pc.r != nil {
		return pc.n
	}
	return len(pc.b)
}

// CopyTo copies the piece's bytes into dst, which is at least Len long.
func (pc Piece) CopyTo(dst []byte) { pc.readAt(dst[:pc.Len()], 0) }

// readAt copies the piece's bytes [pos, pos+len(dst)) into dst. A recipe's
// first term seeds dst by copy where it covers it, else dst starts zero.
func (pc Piece) readAt(dst []byte, pos int) {
	if pc.r == nil {
		copy(dst, pc.b[pos:])
		return
	}
	lo, r := pc.lo+pos, pc.r
	if t := r[0]; t.at <= lo && lo+len(dst) <= t.at+len(t.b) {
		copy(dst, t.b[lo-t.at:])
		r = r[1:]
	} else {
		clear(dst)
	}
	r.xorAt(dst, lo)
}

// zero reports whether the piece was lent from a never-written chunk.
func (pc Piece) zero() bool { return len(pc.b) > 0 && &pc.b[0] == &zeros[0] }

// XOR appends to dst pieces covering n bytes: the XOR of srcs, each a run of
// lent pieces back to back from offset 0 and zero past its end. Every
// Size-byte chunk of the result is one piece, a recipe that refers to the
// sources' pieces (a chunk no source reaches is a zero piece); only a last,
// shorter chunk makes a shorter piece. A recipe among the sources is folded
// in by its own terms, so recipes never nest.
func XOR(dst []Piece, n int, srcs [][]Piece) []Piece {
	terms := make([]term, 0, xorTerms(n, srcs))
	for lo := 0; lo < n; lo += Size {
		hi, first := min(lo+Size, n), len(terms)
		for _, src := range srcs {
			at := 0
			for _, pc := range src {
				l := pc.Len()
				if s, e := max(at, lo), min(at+l, hi); s < e && !pc.zero() {
					terms = pc.terms(terms, s-at, e-s, s-lo)
				}
				at += l
			}
		}
		if r := recipe(terms[first:len(terms):len(terms)]); len(r) > 0 {
			dst = append(dst, Piece{r: r, n: hi - lo})
		} else {
			dst = append(dst, Piece{b: zeros[: hi-lo : hi-lo]})
		}
	}
	return dst
}

// xorTerms bounds the number of terms XOR makes of srcs over n bytes: one
// per piece and result chunk it reaches, times a recipe's terms (a zero
// piece makes none).
func xorTerms(n int, srcs [][]Piece) int {
	m := 0
	for _, src := range srcs {
		at := 0
		for _, pc := range src {
			if e := min(at+pc.Len(), n); at < e {
				m += ((e-1)/Size - at/Size + 1) * max(1, len(pc.r))
			}
			at += pc.Len()
		}
	}
	return m
}

// terms appends the terms that place the piece's bytes [pos, pos+n) at
// offset at of a chunk.
func (pc Piece) terms(dst []term, pos, n, at int) []term {
	if pc.r == nil {
		return append(dst, term{at: at, b: pc.b[pos : pos+n : pos+n]})
	}
	lo := pc.lo + pos // the window, in the recipe's chunk
	for _, t := range pc.r {
		if s, e := max(lo, t.at), min(lo+n, t.at+len(t.b)); s < e {
			dst = append(dst, term{at: at + s - lo, b: t.b[s-t.at : e-t.at : e-t.at]})
		}
	}
	return dst
}

// entry is one stored chunk: its bytes, or, if b is nil, its recipe. A
// shared chunk may be referenced by another store or a lent piece, so it is
// copied before any write; a recipe is always shared.
type entry struct {
	b      []byte
	r      recipe
	shared bool
}

// piece is the whole chunk as a piece.
func (c entry) piece() Piece { return Piece{b: c.b, r: c.r, n: Size} }

// Store is a sparse store of Size-byte chunks with copy-on-write sharing.
type Store struct {
	chunks map[int64]entry
}

// span splits [off, off+n) at chunk boundaries: fn gets each chunk index,
// the offset into that chunk, the run length and the run's position in the
// range.
func span(off int64, n int, fn func(ci int64, co, run, pos int)) {
	for pos := 0; pos < n; {
		ci, co := (off+int64(pos))/Size, int((off+int64(pos))%Size)
		run := min(Size-co, n-pos)
		fn(ci, co, run, pos)
		pos += run
	}
}

// ReadAt copies the bytes at off into buf; never-written bytes read as zero,
// and a recipe's are computed into buf.
func (s *Store) ReadAt(buf []byte, off int64) {
	span(off, len(buf), func(ci int64, co, run, pos int) {
		if c, ok := s.chunks[ci]; ok {
			c.piece().readAt(buf[pos:pos+run], co)
		} else {
			clear(buf[pos : pos+run])
		}
	})
}

// WriteAt copies buf into the store at off. Zeros written to a never-written
// chunk leave it unallocated, which keeps parity streams over mostly-empty
// images from materializing disc-sized allocations.
func (s *Store) WriteAt(buf []byte, off int64) {
	span(off, len(buf), func(ci int64, co, run, pos int) {
		if _, ok := s.chunks[ci]; !ok && allZero(buf[pos:pos+run]) {
			return
		}
		copy(s.own(ci, run == Size)[co:co+run], buf[pos:pos+run])
	})
}

// own returns chunk ci ready to be written in place: allocated if absent,
// copied (a recipe computed) if shared. A caller about to overwrite the whole
// chunk passes whole, and a shared chunk is then not copied, only replaced.
func (s *Store) own(ci int64, whole bool) []byte {
	c, ok := s.chunks[ci]
	if ok && !c.shared {
		return c.b
	}
	b := make([]byte, Size)
	if ok && !whole {
		c.piece().readAt(b, 0)
	}
	s.set(ci, entry{b: b})
	return b
}

func (s *Store) set(ci int64, c entry) {
	if s.chunks == nil {
		s.chunks = make(map[int64]entry)
	}
	s.chunks[ci] = c
}

// Lend appends to dst read-only pieces covering [off, off+n), one per chunk
// touched (a never-written chunk lends zeros, a recipe lends itself), and
// marks the chunks shared, so a later write here copies the chunk and the
// pieces never change. A holder may keep the pieces for as long as it likes
// but must not write to them.
func (s *Store) Lend(dst []Piece, off, n int64) []Piece {
	span(off, int(n), func(ci int64, co, run, pos int) {
		c, ok := s.chunks[ci]
		switch {
		case !ok:
			dst = append(dst, Piece{b: zeros[:run:run]})
		case c.r != nil:
			dst = append(dst, Piece{r: c.r, lo: co, n: run})
		default:
			if !c.shared {
				s.chunks[ci] = entry{b: c.b, shared: true}
			}
			dst = append(dst, Piece{b: c.b[co : co+run : co+run]})
		}
	})
	return dst
}

// Adopt stores pieces back to back from off. A piece that is exactly one
// chunk at a chunk boundary is installed by reference and marked shared (a
// lent zero chunk leaves the chunk unallocated, a recipe stays a recipe). A
// shorter piece at a chunk boundary onto a chunk the store does not hold,
// which reads as zeros, is kept by reference too (an image's last partial
// chunk): as a recipe of the piece's own terms, which reads as the piece
// zero-extended. A zero piece, or a recipe window no term reaches, leaves
// that chunk absent. Any other piece is copied in as by WriteAt, a recipe's
// window computed.
func (s *Store) Adopt(off int64, pieces []Piece) {
	for _, pc := range pieces {
		l := pc.Len()
		switch {
		case off%Size != 0 || l == 0 || l > Size:
			s.write(pc, off)
		case l < Size:
			if _, ok := s.chunks[off/Size]; ok {
				s.write(pc, off)
			} else if !pc.zero() {
				if r := recipe(pc.terms(nil, 0, l, 0)); len(r) > 0 {
					s.set(off/Size, entry{r: r, shared: true})
				}
			}
		case pc.r != nil:
			s.set(off/Size, entry{r: pc.r, shared: true})
		case pc.zero():
			delete(s.chunks, off/Size)
		default:
			s.set(off/Size, entry{b: pc.b[:Size:Size], shared: true})
		}
		off += int64(l)
	}
}

// write copies pc into the store at off.
func (s *Store) write(pc Piece, off int64) {
	if pc.r == nil {
		s.WriteAt(pc.b, off)
		return
	}
	span(off, pc.n, func(ci int64, co, run, pos int) {
		pc.readAt(s.own(ci, run == Size)[co:co+run], pos)
	})
}

// FlipByte inverts the byte at off, copying its chunk first if it is shared.
func (s *Store) FlipByte(off int64) {
	s.own(off/Size, false)[off%Size] ^= 0xFF
}

// Truncate makes every byte at or past off read as zero.
func (s *Store) Truncate(off int64) {
	last, co := off/Size, int(off%Size)
	for ci := range s.chunks {
		if ci > last || ci == last && co == 0 {
			delete(s.chunks, ci)
		}
	}
	if c, ok := s.chunks[last]; ok && (c.r != nil || !allZero(c.b[co:])) {
		clear(s.own(last, false)[co:])
	}
}

// Bytes returns the host memory the store's chunks of bytes occupy, shared
// ones included. A recipe chunk counts nothing: it holds only references to
// other chunks.
func (s *Store) Bytes() int64 {
	n := int64(0)
	for _, c := range s.chunks {
		if c.r == nil {
			n += Size
		}
	}
	return n
}

func allZero(b []byte) bool { return bytes.Equal(b, zeros[:len(b)]) }
