package chunk

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// held is a lend or a recipe someone kept: the pieces, and the bytes they
// read as when made.
type held struct {
	pieces []Piece
	want   []byte
}

// reads reports whether the pieces read as want, using buf.
func (h held) reads(buf []byte) bool {
	at := 0
	for _, pc := range h.pieces {
		b := buf[:pc.Len()]
		pc.CopyTo(b)
		if !bytes.Equal(b, h.want[at:at+len(b)]) {
			return false
		}
		at += len(b)
	}
	return at == len(h.want)
}

// picker draws the choices of an op sequence: from a seeded generator in
// TestPropertyCopyOnWrite, from the fuzz input in FuzzCopyOnWrite.
type picker interface{ intn(n int) int }

type rngPicker struct{ *rand.Rand }

func (r rngPicker) intn(n int) int { return r.Intn(n) }

// bytePicker takes each choice from the next three bytes, zeros once they
// run out.
type bytePicker []byte

func (b *bytePicker) intn(n int) int {
	v := 0
	for i := 0; i < 3 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

const cowSize = 5 * Size

// cow is the copy-on-write property's state: three stores, one plain slice
// per store that it must read as, and the lends and recipes held.
type cow struct {
	pick   picker
	stores []*Store
	models [][]byte
	holds  []held
	buf    []byte // check's
}

func newCow(pick picker) *cow {
	c := &cow{pick: pick, buf: make([]byte, cowSize)}
	for range 3 {
		c.stores, c.models = append(c.stores, &Store{}), append(c.models, make([]byte, cowSize))
	}
	return c
}

// span picks a range: a whole aligned chunk or more half the time,
// otherwise anything.
func (c *cow) span() (int64, int64) {
	if c.pick.intn(2) == 0 {
		first, n := c.pick.intn(cowSize/Size), 1+c.pick.intn(2)
		n = min(n, cowSize/Size-first)
		return int64(first) * Size, int64(n) * Size
	}
	n := 1 + c.pick.intn(2*Size)
	return int64(c.pick.intn(cowSize - n + 1)), int64(n)
}

// at picks where n bytes go: a chunk boundary two times in three, else
// anywhere they fit.
func (c *cow) at(n int) int64 {
	if c.pick.intn(3) > 0 {
		return int64(c.pick.intn((cowSize-n)/Size+1)) * Size
	}
	return int64(c.pick.intn(cowSize - n + 1))
}

// fill returns n bytes: zeros one time in four (which a fresh chunk does not
// store), else a seeded pattern.
func (c *cow) fill(n int64) []byte {
	b := make([]byte, n)
	if c.pick.intn(4) > 0 {
		x := uint64(c.pick.intn(1<<24)) | 1
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
	}
	return b
}

func (c *cow) hold(h held) {
	if len(c.holds) == 12 {
		c.holds = c.holds[1:]
	}
	c.holds = append(c.holds, h)
}

// lend lends [off, off+n) of store i and what it must read as.
func (c *cow) lend(i int, off, n int64) held {
	return held{pieces: c.stores[i].Lend(nil, off, n), want: append([]byte(nil), c.models[i][off:off+n]...)}
}

func (c *cow) adopt(o int, off int64, h held) {
	if off+int64(len(h.want)) > cowSize {
		off = cowSize - int64(len(h.want))
	}
	c.stores[o].Adopt(off, h.pieces)
	copy(c.models[o][off:], h.want)
}

// recipe builds a recipe of n bytes over one to three sources, each lent by
// a store other than o (whole or short, from a chunk boundary or not) or a
// zero piece, and what it must read as: their XOR, each zero-extended.
func (c *cow) recipe(o int) held {
	n := Size
	switch c.pick.intn(4) {
	case 0:
		n = 1 + c.pick.intn(Size)
	case 1:
		n = 2 * Size
	}
	want := make([]byte, n)
	srcs := make([][]Piece, 1+c.pick.intn(3))
	for i := range srcs {
		m := n
		if c.pick.intn(2) == 0 {
			m = 1 + c.pick.intn(n)
		}
		if c.pick.intn(4) == 0 {
			srcs[i] = new(Store).Lend(nil, 0, int64(m))
			continue
		}
		h := c.lend((o+1+c.pick.intn(len(c.stores)-1))%len(c.stores), c.at(m), int64(m))
		for j, v := range h.want {
			want[j] ^= v
		}
		srcs[i] = h.pieces
	}
	return held{pieces: XOR(nil, n, srcs), want: want}
}

// step runs one op on a store and returns the op's name and the store's
// index.
func (c *cow) step() (string, int) {
	o := c.pick.intn(len(c.stores))
	s, m := c.stores[o], c.models[o]
	switch r := c.pick.intn(15); {
	case r < 3:
		off, n := c.span()
		b := c.fill(n)
		s.WriteAt(b, off)
		copy(m[off:], b)
		return "write", o
	case r < 5:
		off, n := c.span()
		c.hold(c.lend(o, off, n))
		return "lend and hold", o
	case r < 7:
		src := c.pick.intn(len(c.stores))
		off, n := c.span()
		h := c.lend(src, off, n)
		dst := off // the same alignment as the lender's
		if c.pick.intn(3) == 0 {
			dst = int64(c.pick.intn(cowSize))
		}
		c.adopt(o, dst, h)
		return "adopt a fresh lend", o
	case r < 8 && len(c.holds) > 0:
		c.adopt(o, int64(c.pick.intn(cowSize/Size))*Size, c.holds[c.pick.intn(len(c.holds))])
		return "adopt a held lend", o
	case r < 10:
		off := int64(c.pick.intn(cowSize))
		s.FlipByte(off)
		m[off] ^= 0xFF
		return "flip", o
	case r < 11:
		off := int64(c.pick.intn(cowSize))
		s.Truncate(off)
		clear(m[off:])
		return "truncate", o
	case r < 12:
		s.Truncate(0)
		clear(m)
		off, n := c.span()
		b := c.fill(n)
		s.WriteAt(b, off)
		copy(m[off:], b)
		return "recycle and rewrite", o
	case r < 14:
		h := c.recipe(o)
		c.hold(h)
		c.adopt(o, c.at(len(h.want)), h)
		return "adopt a recipe", o
	default:
		// Lend a recipe chunk of another store on, whole or a window of it.
		src := (o + 1 + c.pick.intn(len(c.stores)-1)) % len(c.stores)
		var recipes []int64
		for ci := int64(0); ci < cowSize/Size; ci++ {
			if c.stores[src].chunks[ci].r != nil {
				recipes = append(recipes, ci)
			}
		}
		if len(recipes) == 0 {
			return "pass no recipe on", o
		}
		off, n := recipes[c.pick.intn(len(recipes))]*Size, int64(Size)
		if c.pick.intn(3) == 0 {
			lo := int64(c.pick.intn(Size))
			off, n = off+lo, 1+int64(c.pick.intn(Size-int(lo)))
		}
		h := c.lend(src, off, n)
		c.hold(h)
		c.adopt(o, c.at(int(n)), h)
		return "pass a recipe on", o
	}
}

// check reports the first store that differs from its model, or held lend
// or recipe that no longer reads as it did when made.
func (c *cow) check() error {
	for i, s := range c.stores {
		s.ReadAt(c.buf, 0)
		if !bytes.Equal(c.buf, c.models[i]) {
			return fmt.Errorf("store %d differs from its model", i)
		}
	}
	for i, h := range c.holds {
		if !h.reads(c.buf) {
			return fmt.Errorf("held lend or recipe %d changed", i)
		}
	}
	return nil
}

// TestPropertyCopyOnWrite drives three stores through random writes, lends
// that are held, adoptions (whole chunks by reference, other pieces by copy),
// recipes over pieces the other stores lend (short and zero pieces among
// them) that are held and adopted, recipes lent on and adopted elsewhere,
// flips, truncations and recycle-then-rewrite, against one plain slice per
// store. After every step each store reads exactly its slice, and every held
// lend and recipe still reads as it did when made: no owner ever sees
// another owner's later write or flip, and a recipe reads the bytes it was
// made from, zero-extended, whatever its sources' stores do afterwards.
func TestPropertyCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := newCow(rngPicker{rand.New(rand.NewSource(seed))})
		for op := 0; op < 400; op++ {
			what, o := c.step()
			if err := c.check(); err != nil {
				t.Fatalf("seed %d, op %d (%s on store %d): %v", seed, op, what, o, err)
			}
		}
	}
}

// FuzzCopyOnWrite is the property with its choices taken from the input.
func FuzzCopyOnWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 0, 13, 0, 0, 1}, 20))
	f.Fuzz(func(t *testing.T, in []byte) {
		pick := bytePicker(in)
		c := newCow(&pick)
		for op := 0; len(pick) > 0 && op < 100; op++ {
			what, o := c.step()
			if err := c.check(); err != nil {
				t.Fatalf("op %d (%s on store %d): %v", op, what, o, err)
			}
		}
	})
}

// TestAdoptSharesWholeChunks pins what the property cannot see: adopting
// aligned whole chunks allocates no chunk, and a lent zero chunk stays
// sparse.
func TestAdoptSharesWholeChunks(t *testing.T) {
	var a, b Store
	a.WriteAt(bytes.Repeat([]byte{7}, 3*Size), 0)
	pieces := a.Lend(nil, 0, 4*Size) // three stored chunks and a zero one
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.Adopt(4*Size, pieces)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= Size {
		t.Errorf("adopting 4 chunks allocated %d bytes", got)
	}
	if b.Bytes() != 3*Size {
		t.Errorf("store holds %d bytes after adopting 3 chunks and a zero one, want %d", b.Bytes(), 3*Size)
	}
}

// TestRecipeCostsNoChunk pins the other half: a recipe is kept, lent on and
// adopted again without a chunk of bytes, and reading it allocates nothing.
func TestRecipeCostsNoChunk(t *testing.T) {
	var a, b, par, next Store
	a.WriteAt(bytes.Repeat([]byte{0x0F}, 4*Size), 0)
	b.WriteAt(bytes.Repeat([]byte{0xF0}, 3*Size+100), 0) // one whole chunk short, then 100 bytes
	srcs := [][]Piece{a.Lend(nil, 0, 4*Size), b.Lend(nil, 0, 3*Size+100)}
	buf := make([]byte, 4*Size)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	par.Adopt(0, XOR(nil, 4*Size, srcs))
	next.Adopt(Size, par.Lend(nil, 0, 4*Size)[:3])
	next.ReadAt(buf[:3*Size], Size)
	par.ReadAt(buf, 0)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= Size {
		t.Errorf("a 4-chunk recipe, lent on and read, allocated %d bytes", got)
	}
	if par.Bytes() != 0 || next.Bytes() != 0 {
		t.Errorf("recipe stores hold %d and %d bytes of chunks, want none", par.Bytes(), next.Bytes())
	}
	want := append(bytes.Repeat([]byte{0xFF}, 3*Size+100), bytes.Repeat([]byte{0x0F}, Size-100)...)
	if !bytes.Equal(buf, want) {
		t.Error("the recipe does not read as its sources' XOR, the short one zero-extended")
	}
}

// tailSources returns a store of bytes, a store of recipes over it and the
// short pieces an image's last partial chunk can be: bytes, a recipe window,
// a zero piece and a recipe window no term reaches, each with what it reads
// as.
func tailSources() (a, par *Store, tails []held) {
	a, par = &Store{}, &Store{}
	a.WriteAt(bytes.Repeat([]byte{0x3C, 0x5A, 0x99}, Size), 0)
	var short, shortPar Store
	short.WriteAt(bytes.Repeat([]byte{0xA5}, 100), 0)
	par.Adopt(0, XOR(nil, 2*Size, [][]Piece{a.Lend(nil, 0, 2*Size), short.Lend(nil, 0, 100)}))
	shortPar.Adopt(0, XOR(nil, Size, [][]Piece{short.Lend(nil, 0, 100)}))
	for _, pieces := range [][]Piece{
		a.Lend(nil, Size, 3000),
		par.Lend(nil, 50, 5000),
		new(Store).Lend(nil, 0, 4000),
		shortPar.Lend(nil, 200, 800),
	} {
		h := held{pieces: pieces, want: make([]byte, pieces[0].Len())}
		pieces[0].CopyTo(h.want)
		tails = append(tails, h)
	}
	return a, par, tails
}

// TestAdoptKeepsShortTailByReference: a piece shorter than a chunk, adopted
// at a chunk boundary onto a chunk the store does not hold (an image's last
// partial chunk), is kept by reference as a recipe of its own terms. No chunk
// is allocated and Bytes does not grow; the chunk reads as the piece
// zero-extended and is lent on as a recipe. A zero piece, or a recipe window
// no term reaches, leaves the chunk absent.
func TestAdoptKeepsShortTailByReference(t *testing.T) {
	_, _, tails := tailSources()
	buf := make([]byte, Size)
	for i, h := range tails {
		var s Store
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.Adopt(2*Size, h.pieces)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= Size {
			t.Errorf("tail %d: adopting %d bytes allocated %d bytes", i, len(h.want), got)
		}
		if s.Bytes() != 0 {
			t.Errorf("tail %d: store holds %d bytes of chunks, want none", i, s.Bytes())
		}
		s.ReadAt(buf, 2*Size)
		if want := append(append([]byte(nil), h.want...), make([]byte, Size-len(h.want))...); !bytes.Equal(buf, want) {
			t.Errorf("tail %d does not read as the piece zero-extended", i)
		}
		lent := s.Lend(nil, 2*Size, Size)
		switch _, ok := s.chunks[2]; {
		case allZero(h.want) && ok:
			t.Errorf("tail %d reads as zeros but its chunk is stored", i)
		case !allZero(h.want) && lent[0].r == nil:
			t.Errorf("tail %d is not lent on as a recipe", i)
		}
		if !(held{pieces: lent, want: buf}).reads(make([]byte, Size)) {
			t.Errorf("tail %d's lend does not read as the chunk", i)
		}
	}
}

// TestShortTailMaterialisesOnWrite: a write, a flip or a truncation inside
// an adopted tail computes it into exactly one chunk of the adopter's own,
// and reaches neither the lender nor a lend of the tail held from before.
func TestShortTailMaterialisesOnWrite(t *testing.T) {
	for _, op := range []struct {
		name string
		do   func(s *Store, m []byte)
	}{
		{"write", func(s *Store, m []byte) { s.WriteAt([]byte{1, 2, 3}, 10); copy(m[10:], []byte{1, 2, 3}) }},
		{"flip", func(s *Store, m []byte) { s.FlipByte(20); m[20] ^= 0xFF }},
		{"truncate", func(s *Store, m []byte) { s.Truncate(1500); clear(m[1500:]) }},
	} {
		a, par, tails := tailSources()
		before := make([]byte, 4*Size)
		a.ReadAt(before[:2*Size], 0)
		par.ReadAt(before[2*Size:], 0)
		for i, h := range tails[:2] {
			var s Store
			s.Adopt(0, h.pieces)
			kept := held{pieces: s.Lend(nil, 0, Size), want: make([]byte, Size)}
			copy(kept.want, h.want)
			m := append([]byte(nil), kept.want...)
			n := s.Bytes()
			op.do(&s, m)
			if grew := s.Bytes() - n; grew != Size {
				t.Errorf("%s on tail %d: store grew %d bytes of chunks, want one chunk", op.name, i, grew)
			}
			got := make([]byte, Size)
			s.ReadAt(got, 0)
			if !bytes.Equal(got, m) {
				t.Errorf("%s on tail %d: store does not read as written", op.name, i)
			}
			if !kept.reads(got) {
				t.Errorf("%s on tail %d reached a lend of the tail held from before", op.name, i)
			}
		}
		after := make([]byte, 4*Size)
		a.ReadAt(after[:2*Size], 0)
		par.ReadAt(after[2*Size:], 0)
		if !bytes.Equal(before, after) {
			t.Errorf("%s on a tail reached its lender", op.name)
		}
	}
}

// TestShortTailOntoHeldChunkIsCopied: a short piece at a chunk boundary onto
// a chunk the store already holds is copied over the chunk's first bytes,
// which keeps the rest of the chunk; onto a chunk of bytes that costs no
// chunk, onto a recipe it computes one.
func TestShortTailOntoHeldChunkIsCopied(t *testing.T) {
	_, par, tails := tailSources()
	h := tails[0]
	var s Store
	s.WriteAt(bytes.Repeat([]byte{0x11}, Size), 0)
	s.Adopt(Size, par.Lend(nil, 0, Size)) // a recipe chunk
	for ci := int64(0); ci < 2; ci++ {
		want := make([]byte, Size)
		s.ReadAt(want, ci*Size)
		copy(want, h.want)
		s.Adopt(ci*Size, h.pieces)
		got := make([]byte, Size)
		s.ReadAt(got, ci*Size)
		if !bytes.Equal(got, want) {
			t.Errorf("chunk %d does not read as the tail over its old bytes", ci)
		}
		if c := s.chunks[ci]; c.r != nil || c.shared {
			t.Errorf("chunk %d keeps the tail by reference", ci)
		}
	}
	if s.Bytes() != 2*Size {
		t.Errorf("store holds %d bytes of chunks, want two chunks", s.Bytes())
	}
}
