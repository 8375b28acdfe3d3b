package raid

// GF(2^8) arithmetic with the AES/RAID-6 polynomial x^8+x^4+x^3+x^2+1
// (0x11D), used to compute and solve the Q parity of RAID-6.

var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 2
		x = gfMulNoTable(x, 2)
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMulNoTable multiplies in GF(2^8) by shift-and-reduce; used only to build
// the tables.
func gfMulNoTable(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b (b must be non-zero).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("raid: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns 2^n in the field.
func gfPow2(n int) byte { return gfExp[n%255] }

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// mulSliceXor computes dst[i] ^= c * src[i] for all i.
func mulSliceXor(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(src, dst)
		return
	}
	lc := int(gfLog[c])
	for i := range src {
		if src[i] != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[src[i]])]
		}
	}
}
