// Analytics: the paper's motivating big-data scenario — historical data
// preserved on optical discs stays inline-accessible, so an analytics scan
// walks years of records through the same POSIX namespace it would use on a
// live filesystem, with OLFS's fetch scheduler and read cache hiding the
// mechanics where it can (§1, §2.3).
package main

import (
	"fmt"
	"log"
	"time"

	"ros"
)

const (
	months        = 6
	filesPerMonth = 4
	fileSize      = 900 << 10
)

func main() {
	sys, err := ros.New(ros.Options{
		BucketBytes: 4 << 20,
		FS: ros.FSConfig{
			DataDiscs: 4, ParityDiscs: 1,
			BurnStagger:      5 * time.Second,
			RecycleAfterBurn: true, // archives are colder than the buffer
			Forepart:         true, // bound first-byte latency on cold reads
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	err = sys.Do(func(p *ros.Proc) error {
		// Phase 1: six months of telemetry ingested and auto-burned.
		fmt.Println("== ingest ==")
		for m := 0; m < months; m++ {
			for f := 0; f < filesPerMonth; f++ {
				name := fmt.Sprintf("/telemetry/2016-%02d/day-%02d.log", m+1, f+1)
				if err := sys.FS.WriteFile(p, name, record(m, f)); err != nil {
					return err
				}
			}
		}
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		// The scan comes long after the burn: the burned arrays, which
		// stay in their drives until a group is needed, are back in the
		// roller by then.
		if err := sys.FS.UnloadIdle(p); err != nil {
			return err
		}
		snap := sys.Stats().Obs
		fmt.Printf("ingested %d files, %d burn tasks, %d arm loads; archive on disc\n",
			snap.Counter("olfs.files_written"), snap.Counter("olfs.burn_tasks"), snap.Counter("rack.loads"))

		// Phase 2: an analyst asks "total bytes matching a predicate across
		// all of 2016" — a full historical scan.
		fmt.Println("\n== historical scan ==")
		scanStart := p.Now()
		var matched, scanned int64
		var coldReads int
		for m := 0; m < months; m++ {
			monthStart := p.Now()
			for f := 0; f < filesPerMonth; f++ {
				name := fmt.Sprintf("/telemetry/2016-%02d/day-%02d.log", m+1, f+1)
				data, err := sys.FS.ReadFile(p, name)
				if err != nil {
					return fmt.Errorf("scan %s: %w", name, err)
				}
				scanned += int64(len(data))
				for _, b := range data {
					if b == 0x7F {
						matched++
					}
				}
			}
			d := p.Now() - monthStart
			kind := "cache/drive hit"
			if d > 30*time.Second {
				kind = "mechanical fetch"
				coldReads++
			}
			fmt.Printf("  2016-%02d: %8.3fs  (%s)\n", m+1, d.Seconds(), kind)
		}
		fmt.Printf("scan of %d MB finished in %v: %d matches\n",
			scanned>>20, (p.Now() - scanStart).Round(time.Millisecond), matched)

		// Phase 3: first-byte latency for an interactive peek at cold data —
		// the forepart in MV answers before the robotics finish.
		fmt.Println("\n== interactive first byte (forepart) ==")
		target := "/telemetry/2016-01/day-01.log"
		t0 := p.Now()
		if _, err := sys.FS.ReadFirstByte(p, target); err != nil {
			return err
		}
		fmt.Printf("first byte of %s in %v\n", target, p.Now()-t0)

		snap = sys.Stats().Obs
		fmt.Printf("\ncache: %d hits / %d misses, %d mechanical fetches, %d cold month(s)\n",
			snap.Counter("olfs.cache_hits"), snap.Counter("olfs.cache_misses"), snap.Counter("olfs.fetch_tasks"), coldReads)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// record synthesizes one telemetry file.
func record(m, f int) []byte {
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i*7 + m*31 + f)
	}
	return data
}
