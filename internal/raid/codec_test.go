package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lossSets returns every subset of {0..k-1} with at most max members, in
// ascending order within each subset.
func lossSets(k, max int) [][]int {
	sets := [][]int{nil}
	for c := 0; c < k; c++ {
		for _, s := range sets {
			if len(s) < max {
				sets = append(sets, append(append([]int(nil), s...), c))
			}
		}
	}
	return sets
}

// TestCodecMatchesGroundTruth checks Plan, Fold and Solve against parity
// computed byte by byte with the table-free field multiply: for k = 2..12
// random data columns, every loss set of size 0-3 and every P/Q
// availability, Plan errs exactly where a P+Q code cannot recover, and
// otherwise Fold plus Solve reproduce the lost columns exactly — into fresh
// buffers, and in place over the syndromes as the recovery paths solve.
func TestCodecMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 97
	for k := 2; k <= 12; k++ {
		data := make([][]byte, k)
		P, Q := make([]byte, n), make([]byte, n)
		g := byte(1) // g^c, by repeated table-free multiplication
		for c := range data {
			data[c] = make([]byte, n)
			rng.Read(data[c])
			for i, d := range data[c] {
				P[i] ^= d
				Q[i] ^= gfMulNoTable(g, d)
			}
			g = gfMulNoTable(g, 2)
		}
		for _, lost := range lossSets(k, 3) {
			for _, have := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				name := fmt.Sprintf("k=%d lost=%v P=%v Q=%v", k, lost, have[0], have[1])
				useP, useQ, err := Plan(lost, have[0], have[1])
				wantErr := len(lost) > 2 ||
					len(lost) == 1 && !have[0] && !have[1] ||
					len(lost) == 2 && !(have[0] && have[1])
				if wantErr {
					if !errors.Is(err, ErrTooManyFailed) {
						t.Fatalf("%s: Plan err = %v, want ErrTooManyFailed", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: Plan err = %v", name, err)
				}
				wantP := len(lost) == 2 || len(lost) == 1 && have[0]
				wantQ := len(lost) == 2 || len(lost) == 1 && !have[0]
				if useP != wantP || useQ != wantQ {
					t.Fatalf("%s: Plan = (P %v, Q %v), want (%v, %v)", name, useP, useQ, wantP, wantQ)
				}
				// syndromes folds every surviving column into copies of the
				// parity Plan picked.
				syndromes := func() (p, q []byte) {
					if useP {
						p = append([]byte(nil), P...)
					}
					if useQ {
						q = append([]byte(nil), Q...)
					}
					for c := range data {
						if !slices.Contains(lost, c) {
							Fold(c, data[c], p, q)
						}
					}
					return p, q
				}
				check := func(how string, out [][]byte) {
					for i, c := range lost {
						if !bytes.Equal(out[i], data[c]) {
							t.Fatalf("%s, %s: column %d not recovered", name, how, c)
						}
					}
				}
				p, q := syndromes()
				fresh := make([][]byte, len(lost))
				for i := range fresh {
					fresh[i] = make([]byte, n)
				}
				Solve(lost, p, q, fresh)
				check("fresh out", fresh)

				// In place: the outputs are the syndromes themselves, P's
				// first (image), and for two losses also crossed, Q's buffer
				// taking the first column (the block-level decode's layout).
				p, q = syndromes()
				var inPlace [][]byte
				for _, b := range [][]byte{p, q} {
					if b != nil {
						inPlace = append(inPlace, b)
					}
				}
				Solve(lost, p, q, inPlace)
				check("out over syndromes", inPlace)
				if len(lost) == 2 {
					p, q = syndromes()
					Solve(lost, p, q, [][]byte{q, p})
					check("crossed out over syndromes", [][]byte{q, p})
				}
			}
		}
	}
}

// TestFoldSkipsNilAndActsOnPrefix pins Fold's contract: a nil accumulator is
// left alone, and only the first len(src) bytes of an accumulator change.
func TestFoldSkipsNilAndActsOnPrefix(t *testing.T) {
	src := []byte{1, 2, 3}
	p := []byte{0, 0, 0, 9}
	Fold(5, src, p, nil)
	if !bytes.Equal(p, []byte{1, 2, 3, 9}) {
		t.Fatalf("P after Fold = %v", p)
	}
	q := []byte{0, 0, 0, 9}
	Fold(5, src, nil, q)
	g := gfPow2(5)
	want := []byte{gfMulNoTable(g, 1), gfMulNoTable(g, 2), gfMulNoTable(g, 3), 9}
	if !bytes.Equal(q, want) {
		t.Fatalf("Q after Fold = %v, want %v", q, want)
	}
}
