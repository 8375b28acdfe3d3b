// Quickstart: assemble a ROS rack, write files through the POSIX-style
// namespace, read them back, and watch the burn pipeline move them onto
// write-once optical discs — all in virtual time on the discrete-event
// simulation.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"ros"
)

func main() {
	// A laptop-friendly rack: one roller of 6120 25GB discs, two groups of
	// 12 drives, 4 MB buckets (so the pipeline runs quickly), 2+1 parity.
	sys, err := ros.New(ros.Options{BucketBytes: 4 << 20})
	if err != nil {
		log.Fatal(err)
	}

	report := bytes.Repeat([]byte("ROS quickstart payload. "), 40000) // ~1 MB

	err = sys.Do(func(p *ros.Proc) error {
		// 1. Writes are acknowledged from the disk buffer in milliseconds.
		start := p.Now()
		if err := sys.FS.WriteFile(p, "/projects/eurosys17/paper.pdf", report); err != nil {
			return err
		}
		fmt.Printf("write ack:            %v (preliminary bucket writing)\n", p.Now()-start)

		// 2. Reads hit the buffer instantly.
		start = p.Now()
		got, err := sys.FS.ReadFile(p, "/projects/eurosys17/paper.pdf")
		if err != nil {
			return err
		}
		fmt.Printf("buffered read:        %v (%d bytes)\n", p.Now()-start, len(got))

		// 3. Updates create new versions; history stays readable.
		if err := sys.FS.WriteFile(p, "/projects/eurosys17/paper.pdf", report[:512]); err != nil {
			return err
		}
		fi, err := sys.FS.Stat(p, "/projects/eurosys17/paper.pdf")
		if err != nil {
			return err
		}
		fmt.Printf("after update:         version %d, %d bytes\n", fi.Version, fi.Size)

		// 4. Force the archive onto discs and wait for the robotics + burn.
		start = p.Now()
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		fmt.Printf("burned to discs in:   %v (load array + write-all-once + parity)\n", p.Now()-start)

		// 5. Still inline-accessible: the same path, no restore step.
		start = p.Now()
		got, err = sys.FS.ReadFile(p, "/projects/eurosys17/paper.pdf")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, report[:512]) {
			return fmt.Errorf("read-after-burn mismatch")
		}
		fmt.Printf("read after burn:      %v (read-cache hit)\n", p.Now()-start)

		// 6. Historical version 1 is still there (WORM provenance).
		fr, err := sys.FS.OpenFileVersion(p, "/projects/eurosys17/paper.pdf", 1)
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		n, err := fr.ReadAt(p, buf, 0)
		if err != nil {
			return err
		}
		fmt.Printf("version 1 readable:   %q...\n", buf[:min(16, n)])
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	snap := sys.Stats().Obs
	fmt.Printf("\nstats: %d files written, %d read, %d burn task(s), %d arm load(s), virtual time %v\n",
		snap.Counter("olfs.files_written"), snap.Counter("olfs.files_read"), snap.Counter("olfs.burn_tasks"),
		snap.Counter("rack.loads"), sys.Env.Now().Round(time.Second))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
