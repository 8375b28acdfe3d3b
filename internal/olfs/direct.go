package olfs

import (
	"fmt"

	"ros/internal/sim"
	"ros/internal/writepath"
)

// Direct-writing mode (§4.8): "we provide a direct-writing mode where
// incoming files are directly transferred to the SSD tier at full external
// bandwidth through CIFS or NFS, then asynchronously delivered into OLFS."
//
// DirectIngest lands the bytes on the SSD staging tier at wire speed (no
// FUSE round trips, no per-file index ops in the critical path) and a mover
// daemon replays them through the normal OLFS write path in the background.

// directStageRate is the staging-tier ingest bandwidth: the external 10GbE
// link is the bottleneck, not the SSD pair.
const directStageRate = 1.15e9 // bytes/sec

// directItem is one staged file awaiting delivery into OLFS.
type directItem struct {
	path string
	data []byte
}

// ensureMover sets up the staging queue and its mover daemon on first use.
func (fs *FS) ensureMover() {
	if fs.moverQ != nil {
		return
	}
	fs.moverQ = sim.NewQueue[directItem](fs.env)
	fs.moverIdle = sim.NewSignal(fs.env)
	fs.moverIdle.Broadcast()
	fs.mover = sim.NewDaemon(fs.env, "olfs-direct-mover", fs.moveStaged)
}

// DirectIngest accepts a whole file at full external bandwidth and queues it
// for asynchronous delivery into the namespace. The ack returns as soon as
// the bytes are durable on the SSD staging tier.
func (fs *FS) DirectIngest(p *sim.Proc, path string, data []byte) error {
	if fs.stopped {
		return ErrStopped
	}
	if err := checkName(path); err != nil {
		return err
	}
	fs.ensureMover()
	// Wire + staging write at line rate.
	p.Sleep(sim.ByteTime(float64(len(data)), directStageRate))
	cp := append([]byte(nil), data...)
	fs.moverPending++
	fs.moverIdle.Clear()
	fs.moverQ.Push(directItem{path: path, data: cp})
	fs.mover.Wake()
	fs.m.directIngests.Add(1)
	fs.m.directBytes.Add(int64(len(data)))
	return nil
}

// DirectDrain blocks until every staged file has been delivered into OLFS.
func (fs *FS) DirectDrain(p *sim.Proc) error {
	if fs.moverQ == nil {
		return nil
	}
	fs.moverIdle.Wait(p)
	return fs.moverErr
}

// moveStaged is the mover's body: it replays staged files through the
// normal write path until the staging queue is empty.
func (fs *FS) moveStaged(p *sim.Proc) {
	for fs.moverQ.Len() > 0 {
		it, _ := fs.moverQ.Pop(p)
		if err := fs.WriteFileClass(p, it.path, it.data, writepath.Archival); err != nil && fs.moverErr == nil {
			fs.moverErr = fmt.Errorf("olfs: direct mover %s: %w", it.path, err)
		}
		fs.moverPending--
		if fs.moverPending == 0 && fs.moverQ.Len() == 0 {
			fs.moverIdle.Broadcast()
		}
	}
}
