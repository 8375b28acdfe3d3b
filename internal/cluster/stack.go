package cluster

import (
	"fmt"

	"ros/internal/blockdev"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
)

// StackConfig sizes one rack stack — the per-rack subset of the system
// options. Every rack of a federation is built from the same config, each on
// the shared simulation clock but with its own mechanical library, buffer
// and OLFS instance. Zero fields take NewRackStack's defaults (1 roller, 2
// drive groups, 30 buffer slots of 8 MB buckets); FS's zero fields take
// olfs.Config's.
type StackConfig struct {
	Rollers     int
	DriveGroups int
	Media       optical.MediaType
	// BufferSlots sizes the write buffer's seven RAID-5 HDDs at
	// (BufferSlots·BucketBytes/6 + 64 KB)·2 bytes each, which holds about
	// twice BufferSlots buckets: 30 gives 60 slots, 120 gives 240 and 108
	// gives 217 (TestBufferSlotsMapping pins this).
	BufferSlots int
	BucketBytes int64
	BurnCap     float64
	// FS configures OLFS; NewRackStack sets its BucketBytes.
	FS olfs.Config

	// Obs is the registry this rack's stack records into; nil gives the rack
	// a private one. Cluster.New takes Obs as the federation's own registry
	// (cluster.*) and builds every rack, rack 0 included, with a private one,
	// so each rack's counts stay separable (see Cluster.addRack).
	Obs *obs.Registry
}

// Health is a rack's position in the up/degraded/offline state machine.
type Health int

const (
	// HealthUp — full member, preferred for reads and eligible for writes.
	HealthUp Health = iota
	// HealthDegraded — still serving, but replica selection avoids it when a
	// healthy copy exists and placement excludes it.
	HealthDegraded
	// HealthOffline — unreachable; routing skips it and its images are
	// re-replicated elsewhere.
	HealthOffline
)

// String returns the status-display name.
func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthDegraded:
		return "degraded"
	case HealthOffline:
		return "offline"
	}
	return fmt.Sprintf("health%d", int(h))
}

// Rack is one federation member: a full simulated rack+optical+olfs stack.
type Rack struct {
	Index  int
	Name   string // "rack<i>", the fault-point detail string
	Lib    *rack.Library
	FS     *olfs.FS
	Buffer *pagecache.Volume
	// MVArr is the RAID-1 SSD pair the MV namespace lives on.
	MVArr *raid.Array
	// Reg is the registry this rack's stack records into — private per rack
	// in a federation, so per-rack series stay separable and merge correctly.
	Reg *obs.Registry

	health Health
}

// Health returns the rack's current state-machine position.
func (r *Rack) Health() Health { return r.health }

// NewRackStack assembles one rack's full stack on env: the mechanical
// library, the RAID-1 SSD pair backing MV, the RAID-5 HDD write buffer, the
// page cache and OLFS. Cluster.New builds every member with it, and the
// experiment and fault-injection test beds build a lone stack with it.
func NewRackStack(env *sim.Env, idx int, cfg StackConfig) (*Rack, error) {
	if cfg.Rollers == 0 {
		cfg.Rollers = 1
	}
	if cfg.DriveGroups == 0 {
		cfg.DriveGroups = 2
	}
	if cfg.BufferSlots == 0 {
		cfg.BufferSlots = 30
	}
	if cfg.BucketBytes == 0 {
		cfg.BucketBytes = 8 << 20
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New(env)
	}
	lib, err := rack.New(env, rack.Config{
		Rollers:     cfg.Rollers,
		DriveGroups: cfg.DriveGroups,
		Media:       cfg.Media,
		BurnCap:     cfg.BurnCap,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	ssds := []blockdev.Device{
		blockdev.New(env, 256<<30, blockdev.SSDProfile()),
		blockdev.New(env, 256<<30, blockdev.SSDProfile()),
	}
	mvArr, err := raid.New(env, raid.RAID1, ssds, 0)
	if err != nil {
		return nil, err
	}
	hdds := make([]blockdev.Device, 7)
	perDisk := (int64(cfg.BufferSlots)*cfg.BucketBytes/6 + (64 << 10)) * 2
	for i := range hdds {
		hdds[i] = blockdev.New(env, perDisk, blockdev.HDDProfile())
	}
	bufArr, err := raid.New(env, raid.RAID5, hdds, 64<<10)
	if err != nil {
		return nil, err
	}
	buffer := pagecache.New(env, bufArr, pagecache.Ext4Rates())
	buffer.AttachObs(reg, "buffer")
	fsCfg := cfg.FS
	fsCfg.BucketBytes = cfg.BucketBytes
	fs, err := olfs.New(env, fsCfg, lib, mvArr, buffer)
	if err != nil {
		return nil, err
	}
	return &Rack{
		Index:  idx,
		Name:   fmt.Sprintf("rack%d", idx),
		Lib:    lib,
		FS:     fs,
		Buffer: buffer,
		MVArr:  mvArr,
		Reg:    reg,
	}, nil
}
