// Package mv implements the ROS Metadata Volume (§4.2): a small, fast,
// RAID-1/SSD-backed store of JSON index files that maps every entry of the
// global namespace to the disc images holding its data.
//
// Properties taken from the paper:
//
//   - one index file per namespace entry, JSON-encoded for platform
//     independence (typical size ~388 bytes, ~40 bytes per version entry);
//   - up to 15 version entries per index; the 16th update overwrites the
//     oldest (1 KB MV blocks / 128 B inodes sizing, so a billion files plus
//     a billion directories cost ~2.3 TB — 0.23% of 1 PB);
//   - every index operation is direct I/O (no cache) and costs ~2.5 ms
//     (Fig 7's per-internal-op latency, which includes ext4 journaling);
//   - all system running state (DAindex, bucket table, ...) is stored in MV
//     as JSON, and MV checkpoints can be re-loaded after a crash;
//   - foreparts (first 256 KB of a file) can be stored in the index to mask
//     mechanical fetch latency (§4.8).
package mv

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/sim"
)

// Sizing constants from §4.2.
const (
	// MaxVersionEntries is the index-file version ring capacity.
	MaxVersionEntries = 15
	// BlockSize is the MV ext4 block size chosen to reduce waste.
	BlockSize = 1024
	// InodeSize is the smallest ext4 inode size.
	InodeSize = 128
	// MaxForepart bounds the forepart bytes stored in an index (§4.8).
	MaxForepart = 256 << 10
	// DefaultOpCost is the measured average cost of one OLFS internal
	// operation on MV (Fig 7: "Each internal operation in OLFS takes almost
	// 2.5 ms in average"), dominated by direct-I/O ext4 journaling.
	DefaultOpCost = 2500 * time.Microsecond
)

// MV errors.
var (
	ErrNotFound = errors.New("mv: no such index")
	ErrExist    = errors.New("mv: index exists")
	ErrIsDir    = errors.New("mv: is a directory")
	ErrNotDir   = errors.New("mv: not a directory")
	ErrNotEmpty = errors.New("mv: directory not empty")
	ErrCorrupt  = errors.New("mv: corrupt checkpoint")
)

// VersionEntry records one version of a file (§4.2, §4.6): where its data
// lives (one image normally, several for split files) and how big it is.
type VersionEntry struct {
	Version  int        `json:"v"`
	Size     int64      `json:"sz"`
	MTimeNS  int64      `json:"mt"`
	Parts    []image.ID `json:"p"`            // images holding the subfiles, in order
	PartLens []int64    `json:"pl,omitempty"` // per-part byte lengths (len == len(Parts))
}

// Index is one index file: the MV-side description of a namespace entry.
// Index files "do not have actual file data, but only record the locations
// of their data files" (§4.2).
type Index struct {
	Path     string         `json:"path"`
	Dir      bool           `json:"dir,omitempty"`
	Entries  []VersionEntry `json:"e,omitempty"`
	Forepart []byte         `json:"fp,omitempty"`
}

// Current returns the most recent version entry, or nil for directories and
// empty files.
func (ix *Index) Current() *VersionEntry {
	if len(ix.Entries) == 0 {
		return nil
	}
	best := &ix.Entries[0]
	for i := range ix.Entries {
		if ix.Entries[i].Version > best.Version {
			best = &ix.Entries[i]
		}
	}
	return best
}

// VersionAt returns the entry with the given version number, if retained.
func (ix *Index) VersionAt(v int) *VersionEntry {
	for i := range ix.Entries {
		if ix.Entries[i].Version == v {
			return &ix.Entries[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the index. Accessors hand out clones so that
// callers can never mutate MV's internal state without going through a
// charged, versioned operation (AppendVersion, SetForepart, ...).
func (ix *Index) Clone() *Index {
	if ix == nil {
		return nil
	}
	cp := *ix
	if ix.Entries != nil {
		cp.Entries = make([]VersionEntry, len(ix.Entries))
		for i, e := range ix.Entries {
			cp.Entries[i] = e
			cp.Entries[i].Parts = append([]image.ID(nil), e.Parts...)
			cp.Entries[i].PartLens = append([]int64(nil), e.PartLens...)
		}
	}
	cp.Forepart = append([]byte(nil), ix.Forepart...)
	return &cp
}

// Backend is the store MV checkpoints to (a RAID-1 SSD pair in ROS).
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	Size() int64
}

// Volume is the metadata volume. All mutating/stat operations charge the
// configured per-op cost, reflecting direct-I/O index-file access.
type Volume struct {
	env      *sim.Env
	store    Backend
	opCost   time.Duration
	nodes    map[string]*Index
	children map[string]map[string]bool
	state    map[string]json.RawMessage

	// Metric handles, nil (and inert) until AttachObs.
	ops       *obs.Counter
	opLatency *obs.Histogram
}

// AttachObs connects the volume to a metrics registry: mv.ops counts index
// operations (stat/mknod/update/...) and mv.op.latency records the per-op
// charge distribution.
func (v *Volume) AttachObs(r *obs.Registry) {
	v.ops = r.Counter("mv.ops")
	v.opLatency = r.Histogram("mv.op.latency")
}

// New creates an empty volume (with a root directory) on the given backend.
// opCost <= 0 selects DefaultOpCost.
func New(env *sim.Env, store Backend, opCost time.Duration) *Volume {
	if opCost <= 0 {
		opCost = DefaultOpCost
	}
	v := &Volume{
		env:      env,
		store:    store,
		opCost:   opCost,
		nodes:    make(map[string]*Index),
		children: make(map[string]map[string]bool),
		state:    make(map[string]json.RawMessage),
	}
	v.nodes["/"] = &Index{Path: "/", Dir: true}
	v.children["/"] = make(map[string]bool)
	return v
}

// OpCost returns the per-operation charge.
func (v *Volume) OpCost() time.Duration { return v.opCost }

// charge sleeps one index-op cost.
func (v *Volume) charge(p *sim.Proc) {
	v.ops.Add(1)
	v.opLatency.Observe(int64(v.opCost))
	p.Sleep(v.opCost)
}

// clean returns path.Clean("/"+name). A name that is already clean and
// absolute, as every caller's is, comes back as it is, without allocating.
func clean(name string) string {
	if isClean(name) {
		return name
	}
	return path.Clean("/" + name)
}

// isClean reports whether name is absolute and in path.Clean's form: no
// empty, "." or ".." component and no trailing slash.
func isClean(name string) bool {
	if name == "/" {
		return true
	}
	if name == "" || name[0] != '/' {
		return false
	}
	for rest := name[1:]; ; {
		comp, after, more := strings.Cut(rest, "/")
		if comp == "" || comp == "." || comp == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = after
	}
}

// Stat loads the index file for name. Cost: one op. The returned index is a
// deep copy: mutating it does not change the volume (a real MV re-reads the
// JSON index file from disk on every stat).
func (v *Volume) Stat(p *sim.Proc, name string) (*Index, error) {
	v.charge(p)
	ix, ok := v.nodes[clean(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return ix.Clone(), nil
}

// Lookup returns the index for name without charging an operation — used
// when the caller already paid for a batched directory read (the dentry
// cache the paper's §4.2 relies on for listing performance). Like Stat it
// returns a deep copy.
func (v *Volume) Lookup(name string) (*Index, bool) {
	ix, ok := v.nodes[clean(name)]
	if !ok {
		return nil, false
	}
	return ix.Clone(), true
}

// Exists reports whether name has an index file. Cost: one op, the Stat it
// stands for when a caller needs only presence; it copies nothing and, on a
// miss, builds no error.
func (v *Volume) Exists(p *sim.Proc, name string) bool {
	v.charge(p)
	_, ok := v.nodes[clean(name)]
	return ok
}

// Mknod creates the index file for a new file or directory, implicitly
// creating missing ancestor directories (the global namespace auto-creates
// parents; OLFS mirrors them into images as the unique file path, §4.4).
// Cost: one op.
func (v *Volume) Mknod(p *sim.Proc, name string, dir bool) (*Index, error) {
	v.charge(p)
	name = clean(name)
	if name == "/" {
		return nil, fmt.Errorf("%w: /", ErrExist)
	}
	if _, ok := v.nodes[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	// Create ancestors.
	parts := strings.Split(name[1:], "/")
	cur := ""
	for _, comp := range parts[:len(parts)-1] {
		parent := cur
		if parent == "" {
			parent = "/"
		}
		cur = cur + "/" + comp
		if ix, ok := v.nodes[cur]; ok {
			if !ix.Dir {
				return nil, fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		v.nodes[cur] = &Index{Path: cur, Dir: true}
		v.children[cur] = make(map[string]bool)
		v.children[parent][comp] = true
	}
	parent := path.Dir(name)
	ix := &Index{Path: name, Dir: dir}
	v.nodes[name] = ix
	if dir {
		v.children[name] = make(map[string]bool)
	}
	v.children[parent][path.Base(name)] = true
	return ix.Clone(), nil
}

// AppendVersion records a new version entry for name, wrapping the ring at
// MaxVersionEntries (§4.6). Cost: one op.
func (v *Volume) AppendVersion(p *sim.Proc, name string, ve VersionEntry) error {
	v.charge(p)
	ix, ok := v.nodes[clean(name)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if ix.Dir {
		return fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	if cur := ix.Current(); cur != nil && ve.Version <= cur.Version {
		ve.Version = cur.Version + 1
	}
	if ve.Version == 0 {
		ve.Version = 1
	}
	ve.MTimeNS = int64(v.env.Now())
	if len(ix.Entries) < MaxVersionEntries {
		ix.Entries = append(ix.Entries, ve)
		return nil
	}
	// Overwrite the oldest entry.
	oldest := 0
	for i := range ix.Entries {
		if ix.Entries[i].Version < ix.Entries[oldest].Version {
			oldest = i
		}
	}
	ix.Entries[oldest] = ve
	return nil
}

// SetForepart stores the first bytes of a file in its index (§4.8). Data
// beyond MaxForepart is truncated. Cost: one op.
func (v *Volume) SetForepart(p *sim.Proc, name string, data []byte) error {
	v.charge(p)
	ix, ok := v.nodes[clean(name)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if len(data) > MaxForepart {
		data = data[:MaxForepart]
	}
	ix.Forepart = append([]byte(nil), data...)
	return nil
}

// ReadDir lists the children of a directory, sorted. Cost: one op.
func (v *Volume) ReadDir(p *sim.Proc, name string) ([]string, error) {
	v.charge(p)
	name = clean(name)
	ix, ok := v.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if !ix.Dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
	}
	var out []string
	for c := range v.children[name] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes an index file (directories must be empty). The data on
// discs is untouched — WORM media retain all burned versions (§4.6). Cost:
// one op.
func (v *Volume) Remove(p *sim.Proc, name string) error {
	v.charge(p)
	name = clean(name)
	if name == "/" {
		return fmt.Errorf("%w: cannot remove root", ErrIsDir)
	}
	ix, ok := v.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if ix.Dir && len(v.children[name]) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, name)
	}
	delete(v.nodes, name)
	delete(v.children, name)
	delete(v.children[path.Dir(name)], path.Base(name))
	return nil
}

// Restore inserts an index without charging — used by bulk namespace
// recovery from scanned discs (§4.4).
func (v *Volume) Restore(ix Index) {
	name := clean(ix.Path)
	ix.Path = name
	if name == "/" {
		return
	}
	// Ensure ancestors.
	parts := strings.Split(name[1:], "/")
	cur := ""
	for _, comp := range parts[:len(parts)-1] {
		parent := cur
		if parent == "" {
			parent = "/"
		}
		cur = cur + "/" + comp
		if _, ok := v.nodes[cur]; !ok {
			v.nodes[cur] = &Index{Path: cur, Dir: true}
			v.children[cur] = make(map[string]bool)
			v.children[parent][comp] = true
		}
	}
	if existing, ok := v.nodes[name]; ok {
		// Merge: keep the higher versions.
		if !existing.Dir && !ix.Dir {
			for _, e := range ix.Entries {
				if existing.VersionAt(e.Version) == nil {
					existing.Entries = append(existing.Entries, e)
				}
			}
		}
		return
	}
	cp := ix
	cp.Entries = append([]VersionEntry(nil), ix.Entries...)
	v.nodes[name] = &cp
	if cp.Dir {
		v.children[name] = make(map[string]bool)
	}
	v.children[path.Dir(name)][path.Base(name)] = true
}

// SaveState stores a JSON system-state blob under key (DAindex, bucket
// table, ...). Cost: one op.
func (v *Volume) SaveState(p *sim.Proc, key string, val interface{}) error {
	v.charge(p)
	b, err := json.Marshal(val)
	if err != nil {
		return err
	}
	v.state[key] = b
	return nil
}

// LoadState retrieves a system-state blob. Cost: one op.
func (v *Volume) LoadState(p *sim.Proc, key string, out interface{}) error {
	v.charge(p)
	b, ok := v.state[key]
	if !ok {
		return fmt.Errorf("%w: state %s", ErrNotFound, key)
	}
	return json.Unmarshal(b, out)
}

// Walk visits all indexes in sorted path order (no charge; maintenance
// interface).
func (v *Volume) Walk(fn func(ix *Index) error) error {
	paths := make([]string, 0, len(v.nodes))
	for p := range v.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := fn(v.nodes[p]); err != nil {
			return err
		}
	}
	return nil
}

// FileCount returns the number of file indexes.
func (v *Volume) FileCount() int {
	n := 0
	for _, ix := range v.nodes {
		if !ix.Dir {
			n++
		}
	}
	return n
}

// DirCount returns the number of directory indexes (including root).
func (v *Volume) DirCount() int {
	n := 0
	for _, ix := range v.nodes {
		if ix.Dir {
			n++
		}
	}
	return n
}

// EstimateBytes returns the MV capacity needed for the given namespace size
// under the paper's sizing (1 KB block + 128 B inode per index file):
// 1e9 files + 1e9 dirs -> ~2.3 TB (§4.2).
func EstimateBytes(files, dirs int64) int64 {
	return (files + dirs) * (BlockSize + InodeSize)
}

// checkpoint is the serialized MV format.
type checkpoint struct {
	Nodes []Index                    `json:"nodes"`
	State map[string]json.RawMessage `json:"state"`
}

const ckptMagic = "ROSMV001"

// Checkpoint serializes the whole volume to its backend, charging the
// backend write time. It is the durability point for crash recovery (§4.2:
// "Once ROS crashes, OLFS can recover from its previous checkpoint state").
func (v *Volume) Checkpoint(p *sim.Proc) (int64, error) {
	ck := checkpoint{State: v.state}
	if err := v.Walk(func(ix *Index) error {
		ck.Nodes = append(ck.Nodes, *ix)
		return nil
	}); err != nil {
		return 0, err
	}
	body, err := json.Marshal(&ck)
	if err != nil {
		return 0, err
	}
	head := make([]byte, 16)
	copy(head, ckptMagic)
	binary.LittleEndian.PutUint64(head[8:], uint64(len(body)))
	if err := v.store.WriteAt(p, head, 0); err != nil {
		return 0, err
	}
	if err := v.store.WriteAt(p, body, 16); err != nil {
		return 0, err
	}
	return int64(len(body)) + 16, nil
}

// CheckpointBytes serializes the volume to a byte slice (for burning MV
// into discs, §4.2).
func (v *Volume) CheckpointBytes() ([]byte, error) {
	ck := checkpoint{State: v.state}
	if err := v.Walk(func(ix *Index) error {
		ck.Nodes = append(ck.Nodes, *ix)
		return nil
	}); err != nil {
		return nil, err
	}
	return json.Marshal(&ck)
}

// Load restores a volume from its backend checkpoint.
func Load(env *sim.Env, p *sim.Proc, store Backend, opCost time.Duration) (*Volume, error) {
	head := make([]byte, 16)
	if err := store.ReadAt(p, head, 0); err != nil {
		return nil, err
	}
	if string(head[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(head[8:])
	if n > uint64(store.Size()) {
		return nil, fmt.Errorf("%w: impossible length %d", ErrCorrupt, n)
	}
	body := make([]byte, n)
	if err := store.ReadAt(p, body, 16); err != nil {
		return nil, err
	}
	return Restore(env, store, opCost, body)
}

// Restore rebuilds a volume from checkpoint bytes (from the backend or from
// MV images burned to disc).
func Restore(env *sim.Env, store Backend, opCost time.Duration, body []byte) (*Volume, error) {
	var ck checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	v := New(env, store, opCost)
	for _, ix := range ck.Nodes {
		v.Restore(ix)
	}
	if ck.State != nil {
		v.state = ck.State
	}
	return v, nil
}
