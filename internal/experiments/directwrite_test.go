package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ros/internal/cluster"
	"ros/internal/olfs"
	"ros/internal/sim"
)

// directBed is a one-rack stack with 1 MB buckets and no automatic burn.
func directBed(t *testing.T) *Bed {
	t.Helper()
	bed, err := NewBed(cluster.StackConfig{
		BucketBytes: 1 << 20,
		FS:          olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Env.Close)
	return bed
}

func TestDirectIngestMode(t *testing.T) {
	bed := directBed(t)
	data := pat(8<<20, 3) // 8 MB across several 1 MB buckets
	var ack time.Duration
	err := bed.Run(func(p *sim.Proc) error {
		st := newStager(bed.Env, bed.FS)
		start := p.Now()
		st.ingest(p, "/direct/big.bin", data)
		ack = p.Now() - start
		if err := st.drain(p); err != nil {
			return err
		}
		got, err := bed.FS.ReadFile(p, "/direct/big.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("direct-ingested data mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// §4.8: "at full external bandwidth": 8 MB at 1.15 GB/s is about 7 ms,
	// far below the FUSE+OLFS path for the same bytes.
	if want := sim.ByteTime(float64(len(data)), directStageRate); ack != want {
		t.Errorf("direct ack = %v, want the wire time %v", ack, want)
	}
}

// TestDirectIngestManyFilesKeepOrderAndAll stages twenty files and then two
// versions of one more path, while the mover is busy with the first files:
// after drain every file reads back, and the later version is the current
// one, so the mover delivered in arrival order.
func TestDirectIngestManyFilesKeepOrderAndAll(t *testing.T) {
	bed := directBed(t)
	err := bed.Run(func(p *sim.Proc) error {
		st := newStager(bed.Env, bed.FS)
		for i := 0; i < 20; i++ {
			st.ingest(p, fmt.Sprintf("/d/f%02d", i), pat(10*1024, byte(i)))
		}
		st.ingest(p, "/d/twice", pat(10*1024, 98))
		st.ingest(p, "/d/twice", pat(10*1024, 99))
		if err := st.drain(p); err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			got, err := bed.FS.ReadFile(p, fmt.Sprintf("/d/f%02d", i))
			if err != nil || !bytes.Equal(got, pat(10*1024, byte(i))) {
				t.Errorf("file %d wrong after drain: %v", i, err)
			}
		}
		if got, err := bed.FS.ReadFile(p, "/d/twice"); err != nil || !bytes.Equal(got, pat(10*1024, 99)) {
			t.Errorf("/d/twice is not the version staged last: %v", err)
		}
		v1, err := bed.FS.OpenFileVersion(p, "/d/twice", 1)
		if err != nil {
			return err
		}
		got := make([]byte, 10*1024)
		if _, err := v1.ReadAt(p, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, pat(10*1024, 98)) {
			t.Error("/d/twice version 1 is not the version staged first")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
