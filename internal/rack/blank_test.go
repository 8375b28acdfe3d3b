package rack_test

import (
	"bytes"
	"testing"

	"ros"
	"ros/internal/image"
	"ros/internal/rack"
)

// TestFindEmptyTrayBuildsOnlyTheBurnedTray: a System builds no tray's discs
// until it uses the tray, and a burn's search for a blank array
// (image.Catalog.FindEmptyTray) builds only the tray it burns, even past
// trays the catalog holds as used that this library never touched (as after
// a catalog is restored).
func TestFindEmptyTrayBuildsOnlyTheBurnedTray(t *testing.T) {
	sys, err := ros.New(ros.Options{DisableAutoBurn: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	lib := sys.Cluster.Racks()[0].Lib
	if got := lib.BuiltTrays(); len(got) != 0 {
		t.Fatalf("a new System built trays %v", got)
	}
	for s := 0; s < 3; s++ {
		sys.FS.Cat.SetDAState(rack.TrayID{Layer: rack.LayersPerRoller - 1, Slot: s}, image.DAUsed)
	}
	err = sys.Do(func(p *ros.Proc) error {
		if err := sys.FS.WriteFile(p, "/one", bytes.Repeat([]byte{7}, 300<<10)); err != nil {
			return err
		}
		done, err := sys.FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		_, err = done.Wait(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	burned := rack.TrayID{Layer: rack.LayersPerRoller - 1, Slot: 3}
	if used := sys.FS.Cat.Trays(image.DAUsed); len(used) != 4 || used[3] != burned {
		t.Fatalf("used trays %v, want the three marked and then %v", used, burned)
	}
	if got := lib.BuiltTrays(); len(got) != 1 || got[0] != burned {
		t.Errorf("built trays %v, want only the burned %v", got, burned)
	}
}
