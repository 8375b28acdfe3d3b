package experiments

import (
	"fmt"
	"slices"
	"time"

	"ros/internal/cluster"
	"ros/internal/fsbench"
	"ros/internal/fuse"
	"ros/internal/olfs"
	"ros/internal/samba"
	"ros/internal/sim"
	"ros/internal/writepath"
)

// directStageRate is the staging tier's ingest bandwidth: the external 10GbE
// link is the bottleneck, not the SSD pair.
const directStageRate = 1.15e9 // bytes/sec

// stagedFile is one file on the SSD staging tier awaiting delivery.
type stagedFile struct {
	path string
	data []byte
}

// stager is §4.8's direct-writing mode, a client of OLFS: ingest lands a
// whole file on the SSD staging tier at wire speed (no FUSE round trips, no
// per-file index ops on the client's path), and a mover daemon delivers the
// staged files into OLFS in arrival order as archival-class writes.
type stager struct {
	fs     *olfs.FS
	staged []stagedFile
	idle   *sim.Signal // set while nothing is staged or being delivered
	mover  *sim.Daemon
	err    error // the first delivery failure
}

// newStager returns an idle stager in front of fs. Making it schedules no
// event: the mover starts on the first ingest.
func newStager(env *sim.Env, fs *olfs.FS) *stager {
	s := &stager{fs: fs, idle: sim.NewSignal(env)}
	s.idle.Broadcast()
	s.mover = sim.NewDaemon(env, "direct-mover", s.deliver)
	return s
}

// ingest acks once the bytes are on the staging tier; delivery into OLFS
// continues in the background.
func (s *stager) ingest(p *sim.Proc, path string, data []byte) {
	p.Sleep(sim.ByteTime(float64(len(data)), directStageRate))
	s.idle.Clear()
	s.staged = append(s.staged, stagedFile{path: path, data: append([]byte(nil), data...)})
	s.mover.Wake()
}

// drain waits until every staged file has been delivered into OLFS.
func (s *stager) drain(p *sim.Proc) error {
	s.idle.Wait(p)
	return s.err
}

// deliver is the mover's body: it writes staged files into OLFS until none
// is left.
func (s *stager) deliver(p *sim.Proc) {
	for len(s.staged) > 0 {
		f := s.staged[0]
		s.staged = slices.Delete(s.staged, 0, 1)
		if err := s.fs.WriteFileClass(p, f.path, f.data, writepath.Archival); err != nil && s.err == nil {
			s.err = fmt.Errorf("direct mover %s: %w", f.path, err)
		}
		if len(s.staged) == 0 {
			s.idle.Broadcast()
		}
	}
}

// AblationDirectWrite measures §4.8's direct-writing mode: "incoming files
// are directly transferred to the SSD tier at full external bandwidth
// through CIFS or NFS, then asynchronously delivered into OLFS" — versus the
// same data pushed through the samba+FUSE+OLFS stack.
func AblationDirectWrite() (Result, error) {
	res := Result{ID: "ablate-directwrite", Title: "Direct-writing mode vs NAS stack ingest (§4.8)"}
	const total = 128 << 20
	const fileSize = 8 << 20

	// Path A: samba+FUSE+OLFS (the Fig 6 NAS write path).
	bedA, err := NewBed(cluster.StackConfig{
		BufferSlots: 8,
		BucketBytes: 64 << 20,
		FS:          olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false},
	})
	if err != nil {
		return res, err
	}
	defer bedA.Env.Close()
	stack := samba.Wrap(bedA.Env, fuse.Wrap(bedA.FS, fuse.DefaultOptions()), samba.DefaultOptions())
	var nasMBps float64
	err = bedA.Run(func(p *sim.Proc) error {
		start := p.Now()
		for off := 0; off < total; off += fileSize {
			name := fmt.Sprintf("/dw/nas-%04d.bin", off/fileSize)
			r, err := fsbench.SingleStreamWrite(p, stack, name, fileSize, fsbench.DefaultIOSize)
			if err != nil {
				return err
			}
			_ = r
		}
		nasMBps = float64(total) / 1e6 / (p.Now() - start).Seconds()
		return nil
	})
	if err != nil {
		return res, err
	}

	// Path B: direct-writing mode.
	bedB, err := NewBed(cluster.StackConfig{
		BufferSlots: 8,
		BucketBytes: 64 << 20,
		FS:          olfs.Config{DataDiscs: 2, ParityDiscs: 1, AutoBurn: false},
	})
	if err != nil {
		return res, err
	}
	defer bedB.Env.Close()
	var directMBps float64
	var drainLag time.Duration
	err = bedB.Run(func(p *sim.Proc) error {
		st := newStager(bedB.Env, bedB.FS)
		data := pat(fileSize, 0x42)
		start := p.Now()
		for off := 0; off < total; off += fileSize {
			st.ingest(p, fmt.Sprintf("/dw/direct-%04d.bin", off/fileSize), data)
		}
		ingested := p.Now()
		directMBps = float64(total) / 1e6 / (ingested - start).Seconds()
		if err := st.drain(p); err != nil {
			return err
		}
		drainLag = p.Now() - ingested
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Metrics = []Metric{
		{Name: "NAS stack ingest throughput", Paper: 0, Measured: nasMBps, Unit: "MB/s (8MB files through samba+FUSE+OLFS; per-file metadata dominates)"},
		{Name: "direct-writing ingest throughput", Paper: 1150, Measured: directMBps, Unit: "MB/s ('full external bandwidth')"},
		{Name: "direct-mode speedup", Paper: 0, Measured: directMBps / nasMBps, Unit: "x (no exact paper figure)"},
		{Name: "async delivery lag after last ingest", Paper: 0, Measured: drainLag.Seconds(), Unit: "s (background, off the client path)"},
	}
	res.Notes = "the paper gives no throughput figure for direct mode beyond 'full external bandwidth'; the 10GbE wire rate is the reference"
	return res, nil
}
