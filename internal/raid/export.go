package raid

import "crypto/subtle"

// Exported GF(2^8) helpers used by internal/image to compute RAID-5/6 parity
// *across disc images* (§4.7 of the paper: 11+1 or 10+2 redundancy within a
// 12-disc tray), reusing the same field arithmetic as the block-level RAID.

// XorSlice computes dst[i] ^= src[i] (the P parity accumulate) a machine word
// at a time. It is the one XOR kernel of the block-level RAID and the
// disc-image parity code. dst must be at least as long as src and may be the
// same slice, but may not overlap it otherwise.
func XorSlice(src, dst []byte) {
	subtle.XORBytes(dst, src, dst[:len(src)])
}

// MulXorSlice computes dst[i] ^= c*src[i] in GF(2^8) (the Q parity
// accumulate for data column with coefficient c).
func MulXorSlice(c byte, src, dst []byte) { mulSliceXor(c, src, dst) }

// Pow2 returns the generator power 2^n in GF(2^8), the Q coefficient of data
// column n.
func Pow2(n int) byte { return gfPow2(n) }

// Mul multiplies two GF(2^8) elements.
func Mul(a, b byte) byte { return gfMul(a, b) }

// Inv returns the multiplicative inverse of a non-zero GF(2^8) element.
func Inv(a byte) byte { return gfInv(a) }

// SolveTwoErasures recovers two lost data columns x and y (coefficients
// g^x, g^y) from the P and Q syndromes restricted to the missing columns:
//
//	pxy = Dx ^ Dy
//	qxy = g^x*Dx ^ g^y*Dy
//
// It writes Dx into dx and Dy into dy (all slices same length).
func SolveTwoErasures(x, y int, pxy, qxy, dx, dy []byte) {
	gx, gy := gfPow2(x), gfPow2(y)
	denom := gfInv(gx ^ gy)
	for i := range pxy {
		dx[i] = gfMul(gfMul(gy, pxy[i])^qxy[i], denom)
		dy[i] = pxy[i] ^ dx[i]
	}
}
