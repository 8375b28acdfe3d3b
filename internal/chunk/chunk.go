// Package chunk is the sparse byte store under every simulated byte tier:
// the page cache (pagecache.Volume), block devices (blockdev.Disk) and
// optical discs (optical.Disc). Memory is taken in Size-byte chunks, only for
// chunks that hold something, so a 4 TB disk or a 25 GB disc costs what was
// written to it.
//
// Chunks can be passed between stores by reference. Lend hands out read-only
// pieces of a store's chunks and marks those chunks shared; Adopt installs a
// piece that is exactly one chunk at a chunk boundary by reference (and
// shared), and copies any other piece. A shared chunk is never written in
// place: WriteAt, FlipByte and Truncate copy it first. So a burned disc image
// and the buffer slot it was burned from hold one copy of their bytes, and no
// later write or media fault on either side reaches the other.
//
// A Store is not safe for concurrent use; its zero value is empty and ready.
package chunk

import "bytes"

// Size is the allocation and sharing granularity.
const Size = 64 << 10

// zeros backs the pieces lent for never-written chunks. Nothing writes to it.
var zeros [Size]byte

// entry is one stored chunk. A shared chunk may be referenced by another
// store or a lent piece, so it is copied before any write.
type entry struct {
	b      []byte
	shared bool
}

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

// ReadAt copies the bytes at off into buf; never-written bytes read as zero.
func (s *Store) ReadAt(buf []byte, off int64) {
	span(off, len(buf), func(ci int64, co, run, pos int) {
		if c, ok := s.chunks[ci]; ok {
			copy(buf[pos:pos+run], c.b[co:co+run])
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
// copied if shared. A caller about to overwrite the whole chunk passes whole,
// and a shared chunk is then not copied, only replaced.
func (s *Store) own(ci int64, whole bool) []byte {
	c, ok := s.chunks[ci]
	if ok && !c.shared {
		return c.b
	}
	b := make([]byte, Size)
	if ok && !whole {
		copy(b, c.b)
	}
	if s.chunks == nil {
		s.chunks = make(map[int64]entry)
	}
	s.chunks[ci] = entry{b: b}
	return b
}

// Lend appends to dst read-only pieces covering [off, off+n), one per chunk
// touched (a never-written chunk lends zeros), and marks the chunks shared,
// so a later write here copies the chunk and the pieces never change. A
// holder may keep the pieces for as long as it likes but must not write to
// them.
func (s *Store) Lend(dst [][]byte, off, n int64) [][]byte {
	span(off, int(n), func(ci int64, co, run, pos int) {
		c, ok := s.chunks[ci]
		if !ok {
			dst = append(dst, zeros[:run:run])
			return
		}
		if !c.shared {
			s.chunks[ci] = entry{b: c.b, shared: true}
		}
		dst = append(dst, c.b[co:co+run:co+run])
	})
	return dst
}

// Adopt stores pieces back to back from off. A piece that is exactly one
// chunk at a chunk boundary is installed by reference and marked shared (a
// lent zero chunk leaves the chunk unallocated); any other piece is copied in
// as by WriteAt.
func (s *Store) Adopt(off int64, pieces [][]byte) {
	for _, pc := range pieces {
		switch {
		case off%Size != 0 || len(pc) != Size:
			s.WriteAt(pc, off)
		case &pc[0] == &zeros[0]:
			delete(s.chunks, off/Size)
		default:
			if s.chunks == nil {
				s.chunks = make(map[int64]entry)
			}
			s.chunks[off/Size] = entry{b: pc[:Size:Size], shared: true}
		}
		off += int64(len(pc))
	}
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
	if c, ok := s.chunks[last]; ok && !allZero(c.b[co:]) {
		clear(s.own(last, false)[co:])
	}
}

// Bytes returns the host memory the store's chunks occupy, shared ones
// included.
func (s *Store) Bytes() int64 { return int64(len(s.chunks)) * Size }

func allZero(b []byte) bool { return bytes.Equal(b, zeros[:len(b)]) }
