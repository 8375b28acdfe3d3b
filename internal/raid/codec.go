package raid

import "crypto/subtle"

// The P/Q erasure code, shared by the block-level RAID-5/6 here and by the
// parity disc images across a tray (internal/image, §4.7: 11+1 or 10+2).
// Data column c contributes D_c to P and g^c·D_c to Q, in GF(2^8). Every
// recovery runs the same three steps: Plan picks the parity a loss needs,
// Fold adds each surviving column to that parity, which leaves the syndromes
// of the lost columns, and Solve turns the syndromes into the lost bytes.

// xorSlice computes dst[i] ^= src[i] a machine word at a time. It is the one
// XOR kernel of the code. dst must be at least as long as src and may be the
// same slice, but may not overlap it otherwise.
func xorSlice(src, dst []byte) {
	subtle.XORBytes(dst, src, dst[:len(src)])
}

// Fold adds src, data column col, to the first len(src) bytes of the P
// accumulator p and the Q accumulator q. A nil accumulator is skipped.
func Fold(col int, src, p, q []byte) {
	if p != nil {
		xorSlice(src, p)
	}
	if q != nil {
		mulSliceXor(gfPow2(col), src, q)
	}
}

// fold is Fold at offset at of both accumulators; p is never nil here.
func fold(col, at int, src, p, q []byte) {
	if q != nil {
		q = q[at:]
	}
	Fold(col, src, p[at:], q)
}

// Plan is the one rule for which parity recovers the lost data columns: one
// loss uses P if it is there, else Q; two losses use P and Q; no loss needs
// neither. Anything else is beyond the code, ErrTooManyFailed.
func Plan(lost []int, haveP, haveQ bool) (useP, useQ bool, err error) {
	switch {
	case len(lost) == 0:
		return false, false, nil
	case len(lost) == 1 && (haveP || haveQ):
		return haveP, !haveP, nil
	case len(lost) == 2 && haveP && haveQ:
		return true, true, nil
	}
	return false, false, ErrTooManyFailed
}

// Solve writes lost column lost[i] into out[i], from the syndromes p and q
// that Plan's parity leaves once every surviving column is folded in (nil
// where Plan did not pick it). Each out is as long as out[0], and p and q at
// least as long. Solve reads p[j] and q[j] before it writes out[i][j], so an
// out may alias a syndrome: recovery can solve in place.
func Solve(lost []int, p, q []byte, out [][]byte) {
	switch {
	case len(lost) == 0:
	case len(lost) == 2:
		// Dx = (g^y·Pxy ^ Qxy) / (g^x ^ g^y); Dy = Pxy ^ Dx.
		gy := gfPow2(lost[1])
		denom := gfInv(gfPow2(lost[0]) ^ gy)
		dx, dy := out[0], out[1][:len(out[0])]
		for j := range dx {
			pj := p[j]
			x := gfMul(gfMul(gy, pj)^q[j], denom)
			dx[j], dy[j] = x, pj^x
		}
	case p != nil:
		copy(out[0], p)
	default:
		// Dx = Qx / g^x.
		inv := gfInv(gfPow2(lost[0]))
		dx := out[0]
		for j := range dx {
			dx[j] = gfMul(q[j], inv)
		}
	}
}
