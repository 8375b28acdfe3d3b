// Archive: the long-term preservation story end to end — ingest a dataset,
// burn it across a disc array with inter-disc parity, lose a disc, recover
// the lost image from parity, and finally rebuild the whole namespace from
// nothing but the surviving discs (the paper's §4.4/§4.7 durability
// mechanisms).
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"ros"
	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/rack"
)

func main() {
	sys, err := ros.New(ros.Options{
		BucketBytes:     2 << 20,
		DisableAutoBurn: true,
		FS:              ros.FSConfig{DataDiscs: 4, ParityDiscs: 1, BurnStagger: 5 * time.Second, RecycleAfterBurn: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	dataset := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/biobank/cohort-2016/sample-%03d.vcf", i)
		dataset[name] = bytes.Repeat([]byte{byte(i + 1), byte(i * 3)}, 400<<10)
	}

	err = sys.Do(func(p *ros.Proc) error {
		// Ingest.
		for name, data := range dataset {
			if err := sys.FS.WriteFile(p, name, data); err != nil {
				return err
			}
		}
		fmt.Printf("ingested %d files (%d KB) into buckets\n", len(dataset), 8*800)

		// Burn to a 4+1 disc array.
		start := p.Now()
		c, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		if _, err := c.Wait(p); err != nil {
			return err
		}
		fmt.Printf("burned with 4+1 inter-disc parity in %v\n", p.Now()-start)

		// Scrub: all parity consistent.
		tray := firstUsedTray(sys)
		rep, err := sys.FS.ScrubTray(p, tray)
		if err != nil {
			return err
		}
		fmt.Printf("scrub of %v: %d bad strips\n", tray, len(rep.BadStrips))

		// Disaster: one disc of the array is destroyed. (The scrub left the
		// array loaded in a drive group, so find the disc there.)
		victim := pickVictim(sys, tray)
		disc := sys.Library.Disc(tray, victim)
		fmt.Printf("destroying disc %v (position %d of tray %v)\n", disc.ID, victim, tray)
		disc.Fail()

		// Recover the lost image from the surviving discs + parity.
		lost := imageAt(sys, tray, victim)
		start = p.Now()
		if _, err := sys.FS.RecoverImage(p, lost); err != nil {
			return err
		}
		fmt.Printf("recovered image %s from parity in %v\n", lost, p.Now()-start)

		// Every file still reads back intact.
		for name, want := range dataset {
			got, err := sys.FS.ReadFile(p, name)
			if err != nil {
				return fmt.Errorf("read %s: %w", name, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s corrupted after recovery", name)
			}
		}
		fmt.Println("all files verified after single-disc loss")

		// Ultimate disaster: the metadata volume is wiped. Rebuild the
		// namespace by scanning the self-descriptive discs.
		sys.FS.MV = mv.New(sys.Env, freshMVStore(sys), mv.DefaultOpCost)
		sys.FS.Cat = image.NewCatalog()
		start = p.Now()
		if err := sys.FS.RecoverNamespace(p, []rack.TrayID{tray}); err != nil {
			return err
		}
		fmt.Printf("namespace rebuilt from discs in %v: %d files recovered\n",
			p.Now()-start, sys.FS.MV.FileCount())

		ok := 0
		for name, want := range dataset {
			got, err := sys.FS.ReadFile(p, name)
			if err == nil && bytes.Equal(got, want) {
				ok++
			}
		}
		fmt.Printf("%d/%d files byte-identical after full MV loss\n", ok, len(dataset))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

func firstUsedTray(sys *ros.System) rack.TrayID {
	if trays := sys.FS.Cat.UsedTrays(); len(trays) > 0 {
		return trays[0]
	}
	return rack.TrayID{}
}

// pickVictim returns a data-disc position of the tray (not parity).
func pickVictim(sys *ros.System, tray rack.TrayID) int {
	onTray := sys.FS.Cat.ImagesOnTray(tray)
	dataN := len(onTray) - 1 // one parity disc
	return dataN - 1         // last data position
}

func imageAt(sys *ros.System, tray rack.TrayID, pos int) image.ID {
	return sys.FS.Cat.ImagesOnTray(tray)[pos]
}

func freshMVStore(sys *ros.System) mv.Backend {
	// A replacement SSD pair for the rebuilt MV.
	return sys.Buffer // reuse buffer store as checkpoint target in the demo
}
