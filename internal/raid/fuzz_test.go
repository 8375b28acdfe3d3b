package raid

import (
	"bytes"
	"slices"
	"testing"

	"ros/internal/blockdev"
	"ros/internal/chunk"
	"ros/internal/sim"
)

// bytePicker takes each choice from the next three bytes of a fuzz input,
// zeros once they run out.
type bytePicker []byte

func (b *bytePicker) intn(n int) int {
	v := 0
	for i := 0; i < 3 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// flushes is FuzzWriteFrom's state: a RAID-5 array, the page-cache store
// that it flushes from and two image stores that the cache's recipes refer
// to, each with the bytes it must read.
type flushes struct {
	t      *testing.T
	pick   *bytePicker
	p      *sim.Proc
	a      *Array
	disks  []*blockdev.Disk
	su     int
	src    chunk.Store
	srcRef []byte
	imgs   [2]chunk.Store
	imgRef [2][]byte
	shadow []byte // what the array must read
	buf    []byte
}

// newFlushes picks the geometry: 3 to 5 members, a stripe unit of a quarter,
// one or two chunks, and one stripe per member, so every member holds parity
// once.
func newFlushes(t *testing.T, pick *bytePicker, p *sim.Proc) *flushes {
	n := 3 + pick.intn(3)
	su := []int{chunk.Size / 4, chunk.Size, 2 * chunk.Size}[pick.intn(3)]
	f := &flushes{t: t, pick: pick, p: p, su: su}
	devs := make([]blockdev.Device, n)
	for i := range devs {
		d := blockdev.New(p.Env(), int64(n*su), blockdev.SSDProfile())
		f.disks, devs[i] = append(f.disks, d), d
	}
	var err error
	if f.a, err = New(p.Env(), RAID5, devs, su); err != nil {
		t.Fatal(err)
	}
	size := int(f.a.Size())
	f.srcRef, f.shadow, f.buf = make([]byte, size), make([]byte, size), make([]byte, size)
	for i := range f.imgs {
		f.imgRef[i] = f.fill(size)
		f.imgs[i].WriteAt(f.imgRef[i], 0)
	}
	return f
}

func (f *flushes) stripeBytes() int { return f.su * f.a.dataPerStripe() }

// fill returns n bytes: zeros one time in four, else a seeded pattern.
func (f *flushes) fill(n int) []byte {
	b := make([]byte, n)
	if f.pick.intn(4) > 0 {
		x := uint64(f.pick.intn(1<<24)) | 1
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
	}
	return b
}

// span picks a range of the array: anything up to two stripes long.
func (f *flushes) span() (int, int) {
	n := 1 + f.pick.intn(min(2*f.stripeBytes(), len(f.shadow)))
	return f.pick.intn(len(f.shadow) - n + 1), n
}

// writeSrc writes b into the cache's store at off.
func (f *flushes) writeSrc(b []byte, off int) {
	f.src.WriteAt(b, int64(off))
	copy(f.srcRef[off:], b)
}

// flush writes [off, off+n) of the cache's store to the array through
// WriteFrom. One time in two a scribbler rewrites the start of the range as
// soon as the flush first yields, which must not reach the array.
func (f *flushes) flush(off, n int) {
	if f.pick.intn(2) == 0 {
		junk := f.fill(1 + f.pick.intn(n))
		f.p.Env().Go("scribble", func(*sim.Proc) { f.writeSrc(junk, off) })
	}
	copy(f.shadow[off:off+n], f.srcRef[off:])
	if err := f.a.WriteFrom(f.p, &f.src, int64(off), int64(n)); err != nil {
		f.t.Fatalf("WriteFrom(off=%d n=%d): %v", off, n, err)
	}
}

// scrub returns the stripes Scrub flags.
func (f *flushes) scrub() []int64 {
	res, err := f.a.Scrub(f.p)
	if err != nil {
		f.t.Fatalf("Scrub: %v", err)
	}
	return res.Mismatches
}

// step runs one op and returns its name.
func (f *flushes) step() string {
	size, sb, su := len(f.shadow), f.stripeBytes(), f.su
	switch f.pick.intn(10) {
	case 0, 1:
		off, n := f.span()
		f.writeSrc(f.fill(n), off)
		return "write the cache"
	case 2:
		// A chunk or two of the cache become the XOR of windows of the two
		// images, as an image parity slot's chunks are.
		n := min((1+f.pick.intn(2))*chunk.Size, size/chunk.Size*chunk.Size)
		at := f.pick.intn((size-n)/chunk.Size+1) * chunk.Size
		want := make([]byte, n)
		srcs := make([][]chunk.Piece, len(f.imgs))
		for i := range f.imgs {
			o := f.pick.intn(size - n + 1)
			srcs[i] = f.imgs[i].Lend(nil, int64(o), int64(n))
			xorSlice(f.imgRef[i][o:o+n], want)
		}
		f.src.Adopt(int64(at), chunk.XOR(nil, n, srcs))
		copy(f.srcRef[at:], want)
		return "adopt recipes into the cache"
	case 3:
		i := f.pick.intn(len(f.imgs))
		off, n := f.span()
		b := f.fill(n)
		f.imgs[i].WriteAt(b, int64(off))
		copy(f.imgRef[i][off:], b)
		return "write an image"
	case 4, 5:
		first := f.pick.intn(size / sb)
		n := min(1+f.pick.intn(2), size/sb-first)
		f.flush(first*sb, n*sb)
		return "flush full stripes"
	case 6:
		f.flush(f.span())
		return "flush a range"
	case 7:
		off, n := f.span()
		b := f.fill(n)
		if err := f.a.WriteAt(f.p, b, int64(off)); err != nil {
			f.t.Fatalf("WriteAt(off=%d n=%d): %v", off, n, err)
		}
		copy(f.shadow[off:], b)
		return "write the array"
	case 8:
		// Flip a byte of a member: scrub flags its stripe alone, and a lost
		// data member reads as written, which parity, a recipe or not, must
		// rebuild. Flipping the byte back restores the member.
		d, s, coff := f.pick.intn(len(f.disks)), f.pick.intn(len(f.disks)), f.pick.intn(su)
		at := int64(s*su + coff)
		f.disks[d].FlipByte(at)
		if bad := f.scrub(); !slices.Equal(bad, []int64{int64(s)}) {
			f.t.Fatalf("member %d flipped in stripe %d: Scrub flags stripes %v", d, s, bad)
		}
		if pd := f.a.pDev(int64(s)); d != pd {
			col := d
			if d > pd {
				col--
			}
			off := s*sb + col*su
			f.disks[d].Fail()
			err := f.a.ReadAt(f.p, f.buf[:su], int64(off))
			f.disks[d].Repair()
			if err != nil || !bytes.Equal(f.buf[:su], f.shadow[off:off+su]) {
				f.t.Fatalf("member %d flipped in stripe %d and lost: the column does not read as written (err %v)", d, s, err)
			}
		}
		f.disks[d].FlipByte(at)
		return "flip a member byte"
	default:
		d := f.pick.intn(len(f.disks))
		f.disks[d].Fail()
		if err := f.a.ReadAt(f.p, f.buf, 0); err != nil || !bytes.Equal(f.buf, f.shadow) {
			f.t.Fatalf("member %d lost: the degraded read differs from the shadow (err %v)", d, err)
		}
		f.disks[d] = blockdev.New(f.p.Env(), f.disks[d].Size(), blockdev.SSDProfile())
		if err := f.a.Rebuild(f.p, d, f.disks[d]); err != nil {
			f.t.Fatalf("Rebuild(%d): %v", d, err)
		}
		return "lose and rebuild a member"
	}
}

// check fails unless the array reads as its shadow and scrubs clean, and
// the cache's store reads as written.
func (f *flushes) check(op int, what string) {
	if err := f.a.ReadAt(f.p, f.buf, 0); err != nil || !bytes.Equal(f.buf, f.shadow) {
		f.t.Fatalf("op %d (%s): the array differs from its shadow (err %v)", op, what, err)
	}
	if bad := f.scrub(); len(bad) > 0 {
		f.t.Fatalf("op %d (%s): Scrub flags stripes %v", op, what, bad)
	}
	if f.src.ReadAt(f.buf, 0); !bytes.Equal(f.buf, f.srcRef) {
		f.t.Fatalf("op %d (%s): the cache's store differs from what was written to it", op, what)
	}
}

// FuzzWriteFrom flushes a page cache's store of bytes and recipes onto a
// RAID-5 array through WriteFrom, full stripes and ranges, between writes
// to the cache and to the images its recipes refer to (during a flush and
// after it), WriteAt writes, member byte flips, and member losses with a
// degraded read and a rebuild, all chosen by the input. After every op the
// array must read as its shadow, the writes that reached it, and scrub
// clean.
func FuzzWriteFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 0, 1, 0, 0, 4, 0, 0, 2, 0, 0, 5}, 10))
	f.Fuzz(func(t *testing.T, in []byte) {
		env := sim.NewEnv()
		defer env.Close()
		pick := bytePicker(in)
		inSim(t, env, func(p *sim.Proc) {
			fl := newFlushes(t, &pick, p)
			for op := 0; len(pick) > 0 && op < 60; op++ {
				fl.check(op, fl.step())
			}
		})
	})
}
