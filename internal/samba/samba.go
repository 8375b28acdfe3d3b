// Package samba models the CIFS/Samba NAS layer ROS exposes to clients
// (§3.3, §5.1: clients connect over a 10 GbE network in NAS mode).
//
// The model captures the behaviours the paper measures:
//
//   - every request pays SMB protocol/CPU cost plus a network round trip and
//     the wire transfer at the 10 GbE rate;
//   - metadata chatter: CIFS path revalidation turns one client create into
//     the Fig 7 sequence "stat*2, mknod, stat*6, write, close" against the
//     backing filesystem;
//   - asynchronous write-behind: SMB writes pipeline against the server
//     filesystem, which is why Fig 6's samba, samba+FUSE and samba+OLFS
//     write bars are nearly identical (~0.32 of ext4) while read bars
//     separate (reads are synchronous round trips);
//   - an optional attribute-revalidation cost per read request when the
//     server filesystem is a user-space (FUSE) mount.
package samba

import (
	"time"

	"ros/internal/sim"
	"ros/internal/vfs"
)

// Options configure the NAS model.
type Options struct {
	// NetRate is the client link bandwidth (10 GbE = 1.25e9 B/s).
	NetRate float64
	// RTT is the network round-trip charged per request.
	RTT time.Duration
	// MetaProto is the SMB protocol/CPU cost per metadata operation.
	MetaProto time.Duration
	// DataProtoRead / DataProtoWrite are per-data-request protocol costs.
	DataProtoRead  time.Duration
	DataProtoWrite time.Duration
	// ReadRevalidate is an extra per-read attribute revalidation charge for
	// user-space (FUSE) server filesystems.
	ReadRevalidate time.Duration
	// Pipeline enables asynchronous write-behind (default on).
	Pipeline bool
	// ExtraCreateStats is the CIFS metadata amplification on create: one
	// stat before and N stats after the server-side create (Fig 7: 1 + 5).
	StatsBeforeCreate int
	StatsAfterCreate  int
}

// DefaultOptions returns the calibrated 10 GbE configuration.
func DefaultOptions() Options {
	return Options{
		NetRate:           1.25e9,
		RTT:               400 * time.Microsecond,
		MetaProto:         1500 * time.Microsecond,
		DataProtoRead:     700 * time.Microsecond,
		DataProtoWrite:    1900 * time.Microsecond,
		Pipeline:          true,
		StatsBeforeCreate: 1,
		StatsAfterCreate:  5,
	}
}

// FS wraps a server filesystem behind the NAS model.
type FS struct {
	env   *sim.Env
	inner vfs.FileSystem
	opts  Options

	// Stats.
	Requests      int64
	BytesToWire   int64
	BytesFromWire int64
}

var _ vfs.FileSystem = (*FS)(nil)

// Wrap exports inner over the modeled network.
func Wrap(env *sim.Env, inner vfs.FileSystem, opts Options) *FS {
	if opts.NetRate <= 0 {
		opts.NetRate = 1.25e9
	}
	return &FS{env: env, inner: inner, opts: opts}
}

// xfer charges the wire time for n bytes plus one RTT.
func (s *FS) xfer(p *sim.Proc, n int) {
	t := s.opts.RTT
	t += sim.ByteTime(float64(n), s.opts.NetRate)
	p.Sleep(t)
}

func (s *FS) metaReq(p *sim.Proc, n int) {
	s.Requests++
	p.Sleep(s.opts.MetaProto)
	s.xfer(p, n)
}

// Create implements vfs.FileSystem with CIFS metadata amplification: the
// client issues separate SMB revalidation requests before and after the
// create, each a full network round trip plus a server-side stat (the Fig 7
// "stat*2, mknod, stat*6" amplification).
func (s *FS) Create(p *sim.Proc, path string) (vfs.File, error) {
	for i := 0; i < s.opts.StatsBeforeCreate; i++ {
		s.metaReq(p, 256)
		_, _ = s.inner.Stat(p, path)
	}
	s.metaReq(p, 256)
	f, err := s.inner.Create(p, path)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.opts.StatsAfterCreate; i++ {
		s.metaReq(p, 256)
		_, _ = s.inner.Stat(p, path)
	}
	return s.newFile(f), nil
}

// Open implements vfs.FileSystem.
func (s *FS) Open(p *sim.Proc, path string) (vfs.File, error) {
	s.metaReq(p, 256)
	f, err := s.inner.Open(p, path)
	if err != nil {
		return nil, err
	}
	return s.newFile(f), nil
}

// Stat implements vfs.FileSystem.
func (s *FS) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	s.metaReq(p, 256)
	return s.inner.Stat(p, path)
}

// Mkdir implements vfs.FileSystem.
func (s *FS) Mkdir(p *sim.Proc, path string) error {
	s.metaReq(p, 256)
	return s.inner.Mkdir(p, path)
}

// ReadDir implements vfs.FileSystem.
func (s *FS) ReadDir(p *sim.Proc, path string) ([]vfs.DirEntry, error) {
	s.metaReq(p, 4096)
	return s.inner.ReadDir(p, path)
}

// Unlink implements vfs.FileSystem.
func (s *FS) Unlink(p *sim.Proc, path string) error {
	s.metaReq(p, 256)
	return s.inner.Unlink(p, path)
}

// file is a client-side SMB handle with optional write-behind.
type file struct {
	s     *FS
	inner vfs.File
	// Write-behind machinery.
	q       *sim.Queue[queuedWrite]
	wb      *sim.Daemon // drains q into the server filesystem
	drained *sim.Signal
	pending int
	werr    error
}

func (s *FS) newFile(inner vfs.File) *file {
	f := &file{s: s, inner: inner}
	if s.opts.Pipeline {
		f.q = sim.NewQueue[queuedWrite](s.env)
		f.drained = sim.NewSignal(s.env)
		f.drained.Broadcast()
		f.wb = sim.NewDaemon(s.env, "smb-writeback", f.writeback)
	}
	return f
}

// queuedWrite is one write-behind request and the trace context of the
// client call that queued it, so the server-side write is attributed to
// that request.
type queuedWrite struct {
	data []byte
	tctx any
}

// writeback is the write-behind daemon's body: it drains queued writes into
// the server filesystem.
func (f *file) writeback(p *sim.Proc) {
	for f.q.Len() > 0 {
		w, _ := f.q.Pop(p)
		p.SetTraceContext(w.tctx)
		if _, err := f.inner.Write(p, w.data); err != nil && f.werr == nil {
			f.werr = err
		}
		p.SetTraceContext(nil)
		f.pending--
		if f.pending == 0 && f.q.Len() == 0 {
			f.drained.Broadcast()
		}
	}
}

// Write implements vfs.File: the client pays protocol + wire time; the
// server-side write proceeds asynchronously (write-behind).
func (f *file) Write(p *sim.Proc, data []byte) (int, error) {
	f.s.Requests++
	f.s.BytesFromWire += int64(len(data))
	p.Sleep(f.s.opts.DataProtoWrite)
	f.s.xfer(p, len(data))
	if f.q == nil {
		return f.inner.Write(p, data)
	}
	if f.werr != nil {
		return 0, f.werr
	}
	cp := append([]byte(nil), data...)
	f.pending++
	f.drained.Clear()
	f.q.Push(queuedWrite{data: cp, tctx: p.TraceContext()})
	f.wb.Wake()
	return len(data), nil
}

// Read implements vfs.File: synchronous request-response.
func (f *file) Read(p *sim.Proc, buf []byte) (int, error) {
	f.s.Requests++
	p.Sleep(f.s.opts.DataProtoRead)
	if f.s.opts.ReadRevalidate > 0 {
		p.Sleep(f.s.opts.ReadRevalidate)
	}
	n, err := f.inner.Read(p, buf)
	f.s.BytesToWire += int64(n)
	f.s.xfer(p, n)
	return n, err
}

// Close implements vfs.File: waits for write-behind to drain (SMB flush on
// close), then closes the server handle.
func (f *file) Close(p *sim.Proc) error {
	if f.q != nil {
		f.drained.Wait(p)
		f.q.Close()
		if f.werr != nil {
			return f.werr
		}
	}
	f.s.metaReq(p, 64)
	return f.inner.Close(p)
}
