package olfs

import (
	"bytes"
	"testing"
	"time"

	"ros/internal/sim"
)

// TestReadFileWindows pins what a whole-file read costs around the 1 MB
// request window, for single-part files and a 12 MB file split over several
// 4 MB buckets: the bytes, and the MV charges, buffer bytes and virtual time
// of the request sequence (stat, one read per window, close). The expected
// numbers were recorded before ReadFile started reading into its result in
// place; they are the sequence, so they may not move.
func TestReadFileWindows(t *testing.T) {
	const mb = 1 << 20
	cases := []struct {
		size      int
		mvCharges int64
		bufBytes  int64
		elapsed   time.Duration
	}{
		{size: 0, mvCharges: 1, bufBytes: 0, elapsed: 6200000},
		{size: 1, mvCharges: 2, bufBytes: 6160, elapsed: 9420129},
		{size: mb - 1, mvCharges: 2, bufBytes: 1054742, elapsed: 10293948},
		{size: mb, mvCharges: 2, bufBytes: 1054751, elapsed: 10293956},
		{size: mb + 1, mvCharges: 3, bufBytes: 1054760, elapsed: 13458962},
		{size: 12 * mb, mvCharges: 13, bufBytes: 12607637, elapsed: 54587793},
	}
	tb := newBed(t, func(c *Config) {
		c.AutoBurn = false
		c.DirectIO = true // every read request charges an MV op, so the count shows
		c.BucketBytes = 4 * mb
	})
	bufRead := tb.fs.obs.Counter("buffer.bytes_read")
	tb.run(t, func(p *sim.Proc) {
		for i, tc := range cases {
			path := "/w/f" + string(rune('a'+i))
			data := pat(tc.size, byte(i))
			if err := tb.fs.WriteFile(p, path, data); err != nil {
				t.Fatalf("WriteFile(%d bytes): %v", tc.size, err)
			}
			tb.buf.Sync(p)
			mv0, buf0, t0 := tb.fs.m.mvCharges.Value(), bufRead.Value(), p.Now()
			got, err := tb.fs.ReadFile(p, path)
			if err != nil {
				t.Fatalf("ReadFile(%d bytes): %v", tc.size, err)
			}
			if got == nil || !bytes.Equal(got, data) {
				t.Errorf("ReadFile(%d bytes) returned %d bytes that differ (nil=%v)", tc.size, len(got), got == nil)
			}
			mvC, bufB, el := tb.fs.m.mvCharges.Value()-mv0, bufRead.Value()-buf0, p.Now()-t0
			if mvC != tc.mvCharges || bufB != tc.bufBytes || el != tc.elapsed {
				t.Errorf("ReadFile(%d bytes): mv_charges=%d bytes_read=%d elapsed=%d, pinned %d / %d / %d",
					tc.size, mvC, bufB, el, tc.mvCharges, tc.bufBytes, tc.elapsed)
			}
		}
	})
	if tb.fs.m.splitFiles.Value() == 0 {
		t.Error("no file was split: the 12 MB case did not cross a bucket")
	}
}

// TestSmallReadAllocBudget holds the steady-state host cost of reading an
// 8 KB file out of the buffer: the result slice, the handle and the op
// bookkeeping. It was over 1 MB/op when every read went through a fresh 1 MB
// bounce buffer, and 58 allocations when the UDF lookup decoded every
// directory on the path into a list of named records (33 since).
func TestSmallReadAllocBudget(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		tb := newBed(t, func(c *Config) { c.AutoBurn = false })
		data := pat(8<<10, 5)
		tb.env.Go("reader", func(p *sim.Proc) {
			if err := tb.fs.WriteFile(p, "/b/small", data); err != nil {
				b.Error(err)
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := tb.fs.ReadFile(p, "/b/small")
				if err != nil || len(got) != len(data) {
					b.Errorf("ReadFile: %d bytes, err=%v", len(got), err)
					return
				}
			}
		})
		tb.env.Run()
	})
	got, allocs := res.AllocedBytesPerOp(), res.AllocsPerOp()
	t.Logf("8 KB buffered ReadFile: %d B/op, %d allocs/op", got, allocs)
	if got > 64<<10 {
		t.Errorf("8 KB buffered ReadFile allocates %d B/op, budget is %d", got, 64<<10)
	}
	if allocs > 36 {
		t.Errorf("8 KB buffered ReadFile allocates %d times per op, budget is 36", allocs)
	}
}
