// Tiering: walk a file down the Table 1 latency ladder — open bucket,
// sealed image, disc in a drive, disc array in the roller — and watch the
// read latency change by five orders of magnitude while the path and API
// stay identical (the paper's "illusion of inline data accessibility").
package main

import (
	"fmt"
	"log"
	"time"

	"ros"
)

func main() {
	sys, err := ros.New(ros.Options{
		BucketBytes:     2 << 20,
		DisableAutoBurn: true,
		FS: ros.FSConfig{
			DataDiscs: 2, ParityDiscs: 1,
			BurnStagger:      5 * time.Second,
			RecycleAfterBurn: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	row := func(name string, d time.Duration) {
		fmt.Printf("  %-42s %12.4f s\n", name, d.Seconds())
	}

	err = sys.Do(func(p *ros.Proc) error {
		payload := make([]byte, 64<<10)
		for i := range payload {
			payload[i] = byte(i)
		}
		fmt.Println("read latency by file location (cf. paper Table 1):")

		// Tier 1: open bucket on the disk buffer.
		if err := sys.FS.WriteFile(p, "/ladder/file.bin", payload); err != nil {
			return err
		}
		t0 := p.Now()
		if _, err := sys.FS.ReadLocated(p, "/ladder/file.bin"); err != nil {
			return err
		}
		row("disk bucket (open)", p.Now()-t0)

		// Tier 2: sealed disc image, still buffered.
		if err := sys.FS.Sync(p); err != nil {
			return err
		}
		t0 = p.Now()
		if _, err := sys.FS.ReadLocated(p, "/ladder/file.bin"); err != nil {
			return err
		}
		row("disc image (buffered)", p.Now()-t0)

		// Burn it; the buffer copy is recycled, so the data now lives only
		// on optical discs. The burned array stays in its drives until a
		// group is needed; put it back in the roller.
		if err := sys.FS.WriteFile(p, "/ladder/pad.bin", payload); err != nil {
			return err
		}
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		if err := sys.FS.UnloadIdle(p); err != nil {
			return err
		}

		// Tier 4 first: array in the roller -> robotic fetch (~70 s).
		t0 = p.Now()
		if _, err := sys.FS.ReadFile(p, "/ladder/file.bin"); err != nil {
			return err
		}
		row("disc array in roller (free drives)", p.Now()-t0)

		// Tier 3: the array is now in the drives; a sibling file on another
		// disc of the same array is a drive-level read.
		if _, err := sys.FS.ReadFirstByte(p, "/ladder/pad.bin"); err != nil {
			return err
		}
		t0 = p.Now()
		if _, err := sys.FS.ReadLocated(p, "/ladder/pad.bin"); err != nil {
			return err
		}
		row("disc in optical drive", p.Now()-t0)

		fmt.Printf("\nsame namespace, same API — latency spans %s to %s.\n",
			"sub-millisecond", "minute-scale")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
