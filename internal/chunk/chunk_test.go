package chunk

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// held is a lend someone kept: the pieces, and the bytes they read as when
// lent.
type held struct {
	pieces [][]byte
	want   []byte
}

func (h held) bytes() []byte { return bytes.Join(h.pieces, nil) }

// TestPropertyCopyOnWrite drives three stores through random writes, lends
// that are held, adoptions (whole chunks by reference, other pieces by copy),
// flips, truncations and recycle-then-rewrite, against one plain slice per
// store. After every step each store reads exactly its slice, and every held
// lend still reads as it did when lent: no owner ever sees another owner's
// later write or flip.
func TestPropertyCopyOnWrite(t *testing.T) {
	const size = 5 * Size
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stores := make([]*Store, 3)
		models := make([][]byte, 3)
		for i := range stores {
			stores[i], models[i] = &Store{}, make([]byte, size)
		}
		var holds []held
		// span picks a range: a whole aligned chunk or more half the time,
		// otherwise anything.
		span := func() (int64, int64) {
			if rng.Intn(2) == 0 {
				first, n := rng.Intn(size/Size), 1+rng.Intn(2)
				n = min(n, size/Size-first)
				return int64(first) * Size, int64(n) * Size
			}
			n := 1 + rng.Intn(2*Size)
			return int64(rng.Intn(size - n + 1)), int64(n)
		}
		fill := func(n int64) []byte {
			b := make([]byte, n)
			if rng.Intn(4) > 0 { // else zeros, which a fresh chunk does not store
				rng.Read(b)
			}
			return b
		}
		adopt := func(o int, off int64, h held) {
			if off+int64(len(h.want)) > size {
				off = size - int64(len(h.want))
			}
			stores[o].Adopt(off, h.pieces)
			copy(models[o][off:], h.want)
		}
		for op := 0; op < 300; op++ {
			o := rng.Intn(len(stores))
			s, m := stores[o], models[o]
			what := ""
			switch r := rng.Intn(12); {
			case r < 3:
				what = "write"
				off, n := span()
				b := fill(n)
				s.WriteAt(b, off)
				copy(m[off:], b)
			case r < 5:
				what = "lend and hold"
				off, n := span()
				h := held{pieces: s.Lend(nil, off, n), want: append([]byte(nil), m[off:off+n]...)}
				if len(holds) == 8 {
					holds = holds[1:]
				}
				holds = append(holds, h)
			case r < 7:
				what = "adopt a fresh lend"
				src := rng.Intn(len(stores))
				off, n := span()
				h := held{pieces: stores[src].Lend(nil, off, n), want: append([]byte(nil), models[src][off:off+n]...)}
				dst := off // the same alignment as the lender's
				if rng.Intn(3) == 0 {
					dst = int64(rng.Intn(size))
				}
				adopt(o, dst, h)
			case r < 8 && len(holds) > 0:
				what = "adopt a held lend"
				adopt(o, int64(rng.Intn(size/Size))*Size, holds[rng.Intn(len(holds))])
			case r < 10:
				what = "flip"
				off := int64(rng.Intn(size))
				s.FlipByte(off)
				m[off] ^= 0xFF
			case r < 11:
				what = "truncate"
				off := int64(rng.Intn(size))
				s.Truncate(off)
				clear(m[off:])
			default:
				what = "recycle and rewrite"
				s.Truncate(0)
				clear(m)
				off, n := span()
				b := fill(n)
				s.WriteAt(b, off)
				copy(m[off:], b)
			}
			got := make([]byte, size)
			for i := range stores {
				stores[i].ReadAt(got, 0)
				if !bytes.Equal(got, models[i]) {
					t.Fatalf("seed %d, op %d (%s on store %d): store %d differs from its model", seed, op, what, o, i)
				}
			}
			for i, h := range holds {
				if !bytes.Equal(h.bytes(), h.want) {
					t.Fatalf("seed %d, op %d (%s on store %d): held lend %d changed", seed, op, what, o, i)
				}
			}
		}
	}
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
