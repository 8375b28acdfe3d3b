// Package udf implements a simplified, self-describing Universal-Disc-Format
// style filesystem used by ROS for both write buckets and burned disc images
// (§4.1, §4.3 of the paper).
//
// The layout follows the properties OLFS depends on:
//
//   - fixed 2 KB blocks (the UDF basic block size, not changeable);
//   - one 2 KB file-entry block per file or directory, so a small file costs
//     at least 4 KB (2 KB data + 2 KB entry) — the paper's worst case;
//   - append-only allocation, matching the write-all-once burning mode;
//   - updatable in place while the volume is open (a "bucket"); Finalize
//     seals it into an immutable disc image;
//   - each image carries a full directory subtree from the global root
//     (unique file path, §4.4), so any surviving disc is independently
//     readable by Scan without the metadata volume.
package udf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"

	"ros/internal/sim"
)

// BlockSize is the UDF basic block size. The paper (§4.5): "In the UDF file
// system the basic block size is 2 KB and cannot be changed."
const BlockSize = 2048

// Filesystem errors.
var (
	ErrNotFormatted = errors.New("udf: backend holds no volume")
	ErrCorrupt      = errors.New("udf: corrupt structure")
	ErrNotFound     = errors.New("udf: no such file or directory")
	ErrExist        = errors.New("udf: entry already exists")
	ErrIsDir        = errors.New("udf: is a directory")
	ErrNotDir       = errors.New("udf: not a directory")
	ErrFinalized    = errors.New("udf: volume is finalized (read-only)")
	ErrNoSpace      = errors.New("udf: no space left in volume")
	ErrNameTooLong  = errors.New("udf: name too long")
)

// Backend is the byte store a volume lives on: a slice of a RAID array (a
// bucket "loop device"), an optical disc through a drive, or a raw Disk.
//
// Buffer ownership is blockdev.Device's: a WriteAt callee must copy buf
// before it returns and may not retain it, so the caller may reuse buf once
// WriteAt returns; a ReadAt callee fills all of buf or returns an error.
// Whole images move between a bucket slot and a disc without either: the
// lender's Lend hands out read-only chunk pieces that the receiver keeps
// (Drive.Burn, bucket.Bucket.Adopt), and each side copies a shared chunk
// before writing to it, so a volume never sees another owner's writes.
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	Size() int64
}

// Slice is a sub-range of a Backend, used to carve bucket volumes out of a
// large RAID array.
type Slice struct {
	B   Backend
	Off int64
	Len int64
}

// NewSlice returns the [off, off+length) window of b.
func NewSlice(b Backend, off, length int64) *Slice {
	return &Slice{B: b, Off: off, Len: length}
}

// ReadAt implements Backend.
func (s *Slice) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > s.Len {
		return fmt.Errorf("udf: slice read out of range (off=%d len=%d size=%d)", off, len(buf), s.Len)
	}
	return s.B.ReadAt(p, buf, s.Off+off)
}

// WriteAt implements Backend.
func (s *Slice) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > s.Len {
		return fmt.Errorf("udf: slice write out of range (off=%d len=%d size=%d)", off, len(buf), s.Len)
	}
	return s.B.WriteAt(p, buf, s.Off+off)
}

// Size implements Backend.
func (s *Slice) Size() int64 { return s.Len }

// Entry types stored in file-entry blocks.
const (
	typeFile byte = 1
	typeDir  byte = 2
	typeLink byte = 3
)

const (
	magicVol   = "ROSUDF01"
	magicEntry = 0xFE
	// descriptor layout offsets
	descBlock = 0
	rootBlock = 1
)

// maxExtentsPerEntry bounds extents stored inline in one 2 KB entry block.
// Name (<=255) + header fit well under 512 bytes, leaving room for >180
// extents; with chaining the count is unbounded.
const maxExtentsPerEntry = 180

// extent is a contiguous run of data blocks.
type extent struct {
	start uint32 // block number
	count uint32
}

// DirEntry is one directory listing element.
type DirEntry struct {
	Name  string
	IsDir bool
	Size  int64
	// LinkTarget is non-empty for link files (split-file continuation
	// markers, §4.5).
	LinkTarget string
}

// Info describes a file or directory.
type Info struct {
	Path       string
	IsDir      bool
	IsLink     bool
	Size       int64
	LinkTarget string
}

// Volume is an open UDF volume. All methods must run inside a simulation
// process. A Volume is not safe for concurrent use by multiple processes;
// OLFS serializes access per bucket/image.
type Volume struct {
	backend     Backend
	totalBlocks uint32
	nextFree    uint32
	rootEntry   uint32
	finalized   bool
	imageID     [16]byte
	label       string
	dirty       bool
	// reserved counts blocks promised to writers' stashed partial tails
	// (Writer.Write): allocatable to nobody else, but not yet used.
	reserved uint32
	// blocks is a free list of BlockSize scratch blocks for entry and
	// descriptor I/O. Every call takes its own, because a backend access can
	// yield to another process using the volume; blocks come back with
	// unspecified contents.
	blocks [][]byte
}

// getBlock takes a scratch block off the free list, or makes one.
func (v *Volume) getBlock() []byte {
	if n := len(v.blocks); n > 0 {
		b := v.blocks[n-1]
		v.blocks = v.blocks[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

func (v *Volume) putBlock(b []byte) { v.blocks = append(v.blocks, b) }

// Format initializes a fresh volume on backend with the given image ID and
// label, creating an empty root directory.
func Format(p *sim.Proc, backend Backend, imageID [16]byte, label string) (*Volume, error) {
	nblocks := backend.Size() / BlockSize
	if nblocks < 8 {
		return nil, fmt.Errorf("udf: backend too small (%d bytes)", backend.Size())
	}
	if nblocks > 1<<31 {
		nblocks = 1 << 31
	}
	v := &Volume{
		backend:     backend,
		totalBlocks: uint32(nblocks),
		nextFree:    2, // 0 = descriptor, 1 = root entry
		rootEntry:   rootBlock,
		imageID:     imageID,
		label:       label,
	}
	root := &entry{typ: typeDir, name: "/"}
	if err := v.writeEntry(p, rootBlock, root); err != nil {
		return nil, err
	}
	if err := v.flushDescriptor(p); err != nil {
		return nil, err
	}
	return v, nil
}

// Open loads an existing volume from backend.
func Open(p *sim.Proc, backend Backend) (*Volume, error) {
	buf := make([]byte, BlockSize)
	if err := backend.ReadAt(p, buf, 0); err != nil {
		return nil, err
	}
	if string(buf[:8]) != magicVol {
		return nil, ErrNotFormatted
	}
	v := &Volume{backend: backend}
	v.totalBlocks = binary.LittleEndian.Uint32(buf[8:])
	v.nextFree = binary.LittleEndian.Uint32(buf[12:])
	v.rootEntry = binary.LittleEndian.Uint32(buf[16:])
	v.finalized = buf[20] == 1
	copy(v.imageID[:], buf[21:37])
	ll := int(buf[37])
	if 38+ll > BlockSize {
		return nil, fmt.Errorf("%w: bad label length", ErrCorrupt)
	}
	v.label = string(buf[38 : 38+ll])
	return v, nil
}

// flushDescriptor persists the volume descriptor block.
func (v *Volume) flushDescriptor(p *sim.Proc) error {
	buf := v.getBlock()
	defer v.putBlock(buf)
	clear(buf)
	copy(buf, magicVol)
	binary.LittleEndian.PutUint32(buf[8:], v.totalBlocks)
	binary.LittleEndian.PutUint32(buf[12:], v.nextFree)
	binary.LittleEndian.PutUint32(buf[16:], v.rootEntry)
	if v.finalized {
		buf[20] = 1
	}
	copy(buf[21:37], v.imageID[:])
	if len(v.label) > 255 {
		return ErrNameTooLong
	}
	buf[37] = byte(len(v.label))
	copy(buf[38:], v.label)
	v.dirty = false
	return v.backend.WriteAt(p, buf, 0)
}

// ImageID returns the volume's unique image identifier.
func (v *Volume) ImageID() [16]byte { return v.imageID }

// Label returns the volume label.
func (v *Volume) Label() string { return v.label }

// Finalized reports whether the volume has been sealed into an immutable
// disc image.
func (v *Volume) Finalized() bool { return v.finalized }

// Finalize seals the volume: no further mutation is allowed. This is the
// bucket -> disc image transition (§4.3).
func (v *Volume) Finalize(p *sim.Proc) error {
	if v.finalized {
		return nil
	}
	v.finalized = true
	return v.flushDescriptor(p)
}

// FreeBytes returns the space not yet allocated.
func (v *Volume) FreeBytes() int64 {
	return int64(v.totalBlocks-v.nextFree) * BlockSize
}

// UsedBytes returns the space consumed including metadata blocks.
func (v *Volume) UsedBytes() int64 { return int64(v.nextFree) * BlockSize }

// CapacityBytes returns the total formatted capacity.
func (v *Volume) CapacityBytes() int64 { return int64(v.totalBlocks) * BlockSize }

// entry is the in-memory form of a file-entry block.
type entry struct {
	typ     byte
	name    string
	size    int64
	extents []extent
	target  string // link target for typeLink
	next    uint32 // continuation entry block (extent chaining), 0 = none
}

// room returns the blocks still allocatable: free and not reserved.
func (v *Volume) room() uint32 { return v.totalBlocks - v.nextFree - v.reserved }

// alloc reserves n contiguous blocks, returning the first block number.
func (v *Volume) alloc(n uint32) (uint32, error) {
	if n > v.room() {
		return 0, ErrNoSpace
	}
	b := v.nextFree
	v.nextFree += n
	v.dirty = true
	return b, nil
}

// writeEntry encodes and writes a file-entry block (and its continuation
// chain for large extent lists).
func (v *Volume) writeEntry(p *sim.Proc, block uint32, e *entry) error {
	buf := v.getBlock()
	defer v.putBlock(buf)
	extents := e.extents
	first := true
	name := e.name
	target := e.target
	for {
		n := len(extents)
		if n > maxExtentsPerEntry {
			n = maxExtentsPerEntry
		}
		var next uint32
		if n < len(extents) {
			if e.next != 0 && first {
				next = e.next // reuse existing chain block
			} else {
				var err error
				next, err = v.alloc(1)
				if err != nil {
					return err
				}
			}
		}
		clear(buf)
		buf[0] = magicEntry
		buf[1] = e.typ
		if len(name) > 255 || len(target) > 1024 {
			return ErrNameTooLong
		}
		buf[2] = byte(len(name))
		binary.LittleEndian.PutUint64(buf[4:], uint64(e.size))
		binary.LittleEndian.PutUint16(buf[12:], uint16(n))
		binary.LittleEndian.PutUint32(buf[14:], next)
		binary.LittleEndian.PutUint16(buf[18:], uint16(len(target)))
		off := 20
		copy(buf[off:], name)
		off += len(name)
		copy(buf[off:], target)
		off += len(target)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[off:], extents[i].start)
			binary.LittleEndian.PutUint32(buf[off+4:], extents[i].count)
			off += 8
		}
		if err := v.backend.WriteAt(p, buf, int64(block)*BlockSize); err != nil {
			return err
		}
		extents = extents[n:]
		if next == 0 {
			return nil
		}
		block = next
		first = false
		name, target = "", "" // continuation blocks carry only extents
	}
}

// readEntry loads a file-entry block (following continuation chains).
func (v *Volume) readEntry(p *sim.Proc, block uint32) (*entry, error) {
	e := &entry{}
	first := true
	buf := v.getBlock()
	defer v.putBlock(buf)
	for {
		if err := v.backend.ReadAt(p, buf, int64(block)*BlockSize); err != nil {
			return nil, err
		}
		if buf[0] != magicEntry {
			return nil, fmt.Errorf("%w: bad entry magic at block %d", ErrCorrupt, block)
		}
		if first {
			e.typ = buf[1]
			nameLen := int(buf[2])
			e.size = int64(binary.LittleEndian.Uint64(buf[4:]))
			targetLen := int(binary.LittleEndian.Uint16(buf[18:]))
			off := 20
			e.name = string(buf[off : off+nameLen])
			off += nameLen
			e.target = string(buf[off : off+targetLen])
		}
		n := int(binary.LittleEndian.Uint16(buf[12:]))
		next := binary.LittleEndian.Uint32(buf[14:])
		off := 20
		if first {
			off += int(buf[2]) + int(binary.LittleEndian.Uint16(buf[18:]))
		}
		for i := 0; i < n; i++ {
			e.extents = append(e.extents, extent{
				start: binary.LittleEndian.Uint32(buf[off:]),
				count: binary.LittleEndian.Uint32(buf[off+4:]),
			})
			off += 8
		}
		if next == 0 {
			return e, nil
		}
		if first {
			e.next = next
		}
		block = next
		first = false
	}
}

// splitPath cleans and splits an absolute path into components.
func splitPath(name string) ([]string, error) {
	name = path.Clean("/" + name)
	if name == "/" {
		return nil, nil
	}
	parts := strings.Split(name[1:], "/")
	for _, c := range parts {
		if len(c) > 255 {
			return nil, ErrNameTooLong
		}
	}
	return parts, nil
}

// dirent is a directory record: child name -> entry block.
type dirent struct {
	block uint32
	name  string
}

// readDirents decodes a directory's content.
func (v *Volume) readDirents(p *sim.Proc, e *entry) ([]dirent, error) {
	if e.typ != typeDir {
		return nil, ErrNotDir
	}
	data, err := v.readData(p, e)
	if err != nil {
		return nil, err
	}
	var des []dirent
	for off := 0; off+6 <= len(data); {
		block := binary.LittleEndian.Uint32(data[off:])
		nl := int(binary.LittleEndian.Uint16(data[off+4:]))
		off += 6
		if block == 0 {
			break // padding
		}
		if off+nl > len(data) {
			return nil, fmt.Errorf("%w: truncated dirent", ErrCorrupt)
		}
		des = append(des, dirent{block: block, name: string(data[off : off+nl])})
		off += nl
	}
	return des, nil
}

// encodeDirents serializes directory records.
func encodeDirents(des []dirent) []byte {
	n := 0
	for _, de := range des {
		n += 6 + len(de.name)
	}
	out := make([]byte, 0, n)
	for _, de := range des {
		out = binary.LittleEndian.AppendUint32(out, de.block)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(de.name)))
		out = append(out, de.name...)
	}
	return out
}

// readData reads a file's full content by walking its extents.
func (v *Volume) readData(p *sim.Proc, e *entry) ([]byte, error) {
	out := make([]byte, 0, e.size)
	remaining := e.size
	for _, ext := range e.extents {
		n := int64(ext.count) * BlockSize
		if n > remaining {
			n = remaining
		}
		buf := make([]byte, n)
		if err := v.backend.ReadAt(p, buf, int64(ext.start)*BlockSize); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		remaining -= n
		if remaining <= 0 {
			break
		}
	}
	return out, nil
}

// writeData allocates blocks for data and returns the extent list.
func (v *Volume) writeData(p *sim.Proc, data []byte) ([]extent, error) {
	if len(data) == 0 {
		return nil, nil
	}
	nblocks := uint32((int64(len(data)) + BlockSize - 1) / BlockSize)
	start, err := v.alloc(nblocks)
	if err != nil {
		return nil, err
	}
	padded := data
	if rem := len(data) % BlockSize; rem != 0 {
		padded = make([]byte, int64(nblocks)*BlockSize)
		copy(padded, data)
	}
	if err := v.backend.WriteAt(p, padded, int64(start)*BlockSize); err != nil {
		return nil, err
	}
	return []extent{{start: start, count: nblocks}}, nil
}

// lookup resolves a path to (entry block, entry). Returns ErrNotFound with
// the deepest existing ancestor's block if the full path does not exist.
func (v *Volume) lookup(p *sim.Proc, name string) (uint32, *entry, error) {
	parts, err := splitPath(name)
	if err != nil {
		return 0, nil, err
	}
	block := v.rootEntry
	e, err := v.readEntry(p, block)
	if err != nil {
		return 0, nil, err
	}
	for _, comp := range parts {
		des, err := v.readDirents(p, e)
		if err != nil {
			return 0, nil, err
		}
		found := uint32(0)
		for _, de := range des {
			if de.name == comp {
				found = de.block
				break
			}
		}
		if found == 0 {
			return 0, nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		block = found
		if e, err = v.readEntry(p, block); err != nil {
			return 0, nil, err
		}
	}
	return block, e, nil
}

// MkdirAll creates the directory path and all missing ancestors — the
// "unique file path" redundant-directory mechanism (§4.4).
func (v *Volume) MkdirAll(p *sim.Proc, name string) error {
	if v.finalized {
		return ErrFinalized
	}
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	block := v.rootEntry
	for _, comp := range parts {
		e, err := v.readEntry(p, block)
		if err != nil {
			return err
		}
		des, err := v.readDirents(p, e)
		if err != nil {
			return err
		}
		next := uint32(0)
		for _, de := range des {
			if de.name == comp {
				next = de.block
				break
			}
		}
		if next == 0 {
			nb, err := v.alloc(1)
			if err != nil {
				return err
			}
			if err := v.writeEntry(p, nb, &entry{typ: typeDir, name: comp}); err != nil {
				return err
			}
			des = append(des, dirent{block: nb, name: comp})
			if err := v.rewriteDir(p, block, e, des); err != nil {
				return err
			}
			next = nb
		} else {
			ce, err := v.readEntry(p, next)
			if err != nil {
				return err
			}
			if ce.typ != typeDir {
				return fmt.Errorf("%w: %s", ErrNotDir, comp)
			}
		}
		block = next
	}
	return v.flushDescriptor(p)
}

// rewriteDir replaces a directory's content with the encoded dirents.
// Because allocation is append-only, the old content blocks are abandoned —
// acceptable for a bucket (recycled wholesale) and impossible after
// finalization anyway.
func (v *Volume) rewriteDir(p *sim.Proc, block uint32, e *entry, des []dirent) error {
	data := encodeDirents(des)
	exts, err := v.writeData(p, data)
	if err != nil {
		return err
	}
	e.extents = exts
	e.size = int64(len(data))
	return v.writeEntry(p, block, e)
}

// WriteFile creates or replaces the file at name with data, creating parent
// directories as needed. Replacement is how bucket-resident files are
// updated (§4.6).
func (v *Volume) WriteFile(p *sim.Proc, name string, data []byte) error {
	if v.finalized {
		return ErrFinalized
	}
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrIsDir
	}
	dir := "/" + strings.Join(parts[:len(parts)-1], "/")
	base := parts[len(parts)-1]
	if err := v.MkdirAll(p, dir); err != nil {
		return err
	}
	dirBlock, dirEnt, err := v.lookup(p, dir)
	if err != nil {
		return err
	}
	des, err := v.readDirents(p, dirEnt)
	if err != nil {
		return err
	}
	exts, err := v.writeData(p, data)
	if err != nil {
		return err
	}
	fe := &entry{typ: typeFile, name: base, size: int64(len(data)), extents: exts}
	existing := uint32(0)
	for _, de := range des {
		if de.name == base {
			existing = de.block
			break
		}
	}
	if existing != 0 {
		old, err := v.readEntry(p, existing)
		if err != nil {
			return err
		}
		if old.typ == typeDir {
			return fmt.Errorf("%w: %s", ErrIsDir, name)
		}
		if err := v.writeEntry(p, existing, fe); err != nil {
			return err
		}
		return v.flushDescriptor(p)
	}
	nb, err := v.alloc(1)
	if err != nil {
		return err
	}
	if err := v.writeEntry(p, nb, fe); err != nil {
		return err
	}
	des = append(des, dirent{block: nb, name: base})
	if err := v.rewriteDir(p, dirBlock, dirEnt, des); err != nil {
		return err
	}
	return v.flushDescriptor(p)
}

// WriteLink creates a link file at name whose content points at target —
// used on the continuation image of a split file to reference the first
// subfile (§4.5).
func (v *Volume) WriteLink(p *sim.Proc, name, target string) error {
	if v.finalized {
		return ErrFinalized
	}
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrIsDir
	}
	dir := "/" + strings.Join(parts[:len(parts)-1], "/")
	base := parts[len(parts)-1]
	if err := v.MkdirAll(p, dir); err != nil {
		return err
	}
	dirBlock, dirEnt, err := v.lookup(p, dir)
	if err != nil {
		return err
	}
	des, err := v.readDirents(p, dirEnt)
	if err != nil {
		return err
	}
	for _, de := range des {
		if de.name == base {
			return fmt.Errorf("%w: %s", ErrExist, name)
		}
	}
	nb, err := v.alloc(1)
	if err != nil {
		return err
	}
	if err := v.writeEntry(p, nb, &entry{typ: typeLink, name: base, target: target}); err != nil {
		return err
	}
	des = append(des, dirent{block: nb, name: base})
	if err := v.rewriteDir(p, dirBlock, dirEnt, des); err != nil {
		return err
	}
	return v.flushDescriptor(p)
}

// ReadFile returns the content of the file at name.
func (v *Volume) ReadFile(p *sim.Proc, name string) ([]byte, error) {
	_, e, err := v.lookup(p, name)
	if err != nil {
		return nil, err
	}
	if e.typ == typeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	return v.readData(p, e)
}

// ReadFileAt reads up to len(buf) bytes of the file at offset off, returning
// the byte count (short reads at EOF).
func (v *Volume) ReadFileAt(p *sim.Proc, name string, buf []byte, off int64) (int, error) {
	data, err := v.ReadFile(p, name)
	if err != nil {
		return 0, err
	}
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(buf, data[off:]), nil
}

// Stat describes the entry at name.
func (v *Volume) Stat(p *sim.Proc, name string) (Info, error) {
	_, e, err := v.lookup(p, name)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Path:       path.Clean("/" + name),
		IsDir:      e.typ == typeDir,
		IsLink:     e.typ == typeLink,
		Size:       e.size,
		LinkTarget: e.target,
	}, nil
}

// ReadDir lists the directory at name, sorted by entry name.
func (v *Volume) ReadDir(p *sim.Proc, name string) ([]DirEntry, error) {
	_, e, err := v.lookup(p, name)
	if err != nil {
		return nil, err
	}
	des, err := v.readDirents(p, e)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(des))
	for _, de := range des {
		ce, err := v.readEntry(p, de.block)
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntry{
			Name:       de.name,
			IsDir:      ce.typ == typeDir,
			Size:       ce.size,
			LinkTarget: ce.target,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk visits every entry in the volume depth-first, calling fn with the
// absolute path and info. It is the basis of disc-level recovery (§4.4: "all
// or partial data can be reconstructed by scanning all survived discs").
func (v *Volume) Walk(p *sim.Proc, fn func(info Info) error) error {
	return v.walk(p, v.rootEntry, "/", fn)
}

func (v *Volume) walk(p *sim.Proc, block uint32, dir string, fn func(info Info) error) error {
	e, err := v.readEntry(p, block)
	if err != nil {
		return err
	}
	des, err := v.readDirents(p, e)
	if err != nil {
		return err
	}
	for _, de := range des {
		ce, err := v.readEntry(p, de.block)
		if err != nil {
			return err
		}
		full := path.Join(dir, de.name)
		info := Info{
			Path:       full,
			IsDir:      ce.typ == typeDir,
			IsLink:     ce.typ == typeLink,
			Size:       ce.size,
			LinkTarget: ce.target,
		}
		if err := fn(info); err != nil {
			return err
		}
		if ce.typ == typeDir {
			if err := v.walk(p, de.block, full, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// FitBytes returns the volume space a file of the given size and path needs:
// data blocks (2 KB granularity) + one entry block + entry blocks for any
// ancestor directories that do not exist yet. OLFS uses this to decide when
// a bucket is full (§4.5). It over-estimates directory growth by one block
// per missing ancestor plus one for the dirent rewrite.
func FitBytes(size int64, missingAncestors int) int64 {
	dataBlocks := (size + BlockSize - 1) / BlockSize
	if size == 0 {
		dataBlocks = 0
	}
	meta := int64(1 + missingAncestors*2 + 1)
	return (dataBlocks + meta) * BlockSize
}
