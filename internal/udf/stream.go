package udf

import (
	"fmt"

	"ros/internal/sim"
)

// Writer streams a file into a volume without knowing its size up front —
// the POSIX write semantics OLFS faces (§4.5: "OLFS does not know the actual
// size of an incoming file ahead of time"). Data is appended in block-
// granular extents; Close commits the entry. When the volume fills, Write
// returns a short count and ErrNoSpace: the caller (OLFS) closes this
// subfile and continues in the next bucket.
type Writer struct {
	v       *Volume
	block   uint32 // entry block
	name    string
	extents []extent
	size    int64
	tail    []byte // partial final block not yet written
	closed  bool
}

// CreateWriter registers a file at name (creating ancestors) and returns a
// streaming writer. If the name already exists as a file in this still-open
// bucket, its entry is reused and the content replaced — the §4.6 in-bucket
// update path ("If an updating file is still in an opened bucket ... the
// file can be simply updated"). The entry block is allocated immediately so
// the file is visible (size 0) from the start.
func (v *Volume) CreateWriter(p *sim.Proc, name string) (*Writer, error) {
	var pa parent
	if err := v.openParent(p, name, &pa); err != nil {
		return nil, err
	}
	defer func() { v.putBlock(pa.data) }()
	block, err := v.placeFile(p, &pa, &entry{typ: typeFile, name: pa.base}, name)
	if err != nil {
		return nil, err
	}
	return &Writer{v: v, block: block, name: pa.base}, nil
}

// Written returns the bytes accepted so far.
func (w *Writer) Written() int64 { return w.size }

// Write appends data, returning how many bytes fit. A short count means the
// volume is full (err == ErrNoSpace); the accepted prefix is durable after
// Close.
func (w *Writer) Write(p *sim.Proc, data []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("udf: write to closed writer")
	}
	written := 0
	// Fill the partial tail block first.
	if len(w.tail) > 0 {
		room := BlockSize - len(w.tail)
		n := room
		if n > len(data) {
			n = len(data)
		}
		w.tail = append(w.tail, data[:n]...)
		data = data[n:]
		written += n
		w.size += int64(n)
		if len(w.tail) == BlockSize {
			if err := w.flushTail(p); err != nil {
				return written, err
			}
		}
	}
	// Whole blocks.
	for len(data) >= BlockSize {
		nblocks := uint32(len(data) / BlockSize)
		// Reserve one spare block for the final entry rewrite.
		if avail := w.v.room(); avail <= 1 {
			return written, ErrNoSpace
		} else if nblocks > avail-1 {
			nblocks = avail - 1
		}
		start, err := w.v.alloc(nblocks)
		if err != nil {
			return written, err
		}
		n := int(nblocks) * BlockSize
		if err := w.v.backend.WriteAt(p, data[:n], int64(start)*BlockSize); err != nil {
			return written, err
		}
		w.appendExtent(extent{start: start, count: nblocks})
		data = data[n:]
		written += n
		w.size += int64(n)
	}
	// Stash the remainder in the tail, reserving the block Close will write
	// it to (the tail is empty here, so it holds no reservation yet): another
	// writer's stash or blocks must not take that room meanwhile.
	if len(data) > 0 {
		if w.v.room() <= 1 {
			return written, ErrNoSpace
		}
		w.v.reserved++
		w.tail = append(w.tail, data...)
		written += len(data)
		w.size += int64(len(data))
	}
	return written, nil
}

// flushTail writes the buffered partial block into the block its stash
// reserved.
func (w *Writer) flushTail(p *sim.Proc) error {
	if len(w.tail) == 0 {
		return nil
	}
	w.v.reserved--
	start, err := w.v.alloc(1)
	if err != nil {
		return err
	}
	buf := w.v.getBlock()
	defer w.v.putBlock(buf)
	clear(buf)
	copy(buf, w.tail)
	if err := w.v.backend.WriteAt(p, buf, int64(start)*BlockSize); err != nil {
		return err
	}
	w.appendExtent(extent{start: start, count: 1})
	w.tail = w.tail[:0]
	return nil
}

// appendExtent merges contiguous allocations (the bump allocator makes most
// streams a single extent).
func (w *Writer) appendExtent(e extent) {
	if n := len(w.extents); n > 0 {
		last := &w.extents[n-1]
		if last.start+last.count == e.start {
			last.count += e.count
			return
		}
	}
	w.extents = append(w.extents, e)
}

// Close flushes the tail and commits the entry (size + extents).
func (w *Writer) Close(p *sim.Proc) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushTail(p); err != nil {
		return err
	}
	e := &entry{typ: typeFile, name: w.name, size: w.size, extents: w.extents}
	if err := w.v.writeEntry(p, w.block, e); err != nil {
		return err
	}
	return w.v.flushDescriptor(p)
}

// Reader provides random access to a file's content with the entry loaded
// once (so repeated ReadAts don't re-walk the directory tree).
type Reader struct {
	v *Volume
	e entry
}

// OpenReader resolves name and returns a random-access reader.
func (v *Volume) OpenReader(p *sim.Proc, name string) (*Reader, error) {
	r := &Reader{v: v}
	if _, err := v.lookup(p, name, &r.e); err != nil {
		return nil, err
	}
	if r.e.typ == typeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	return r, nil
}

// Size returns the file size.
func (r *Reader) Size() int64 { return r.e.size }

// ReadAt fills buf from file offset off, returning the bytes read (short at
// EOF).
func (r *Reader) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	if off >= r.e.size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > r.e.size {
		want = r.e.size - off
	}
	read := int64(0)
	pos := int64(0) // logical position of the current extent's start
	for _, ext := range r.e.extents {
		extLen := int64(ext.count) * BlockSize
		if off+read < pos+extLen && off+read >= pos {
			inOff := off + read - pos
			n := extLen - inOff
			if n > want-read {
				n = want - read
			}
			if err := r.v.backend.ReadAt(p, buf[read:read+n], int64(ext.start)*BlockSize+inOff); err != nil {
				return int(read), err
			}
			read += n
			if read == want {
				break
			}
		}
		pos += extLen
	}
	return int(read), nil
}
