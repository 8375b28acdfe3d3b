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
	"slices"
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
	// blocks is a free list of scratch buffers, at least BlockSize long, for
	// entry and descriptor I/O and for a directory's records. Every call
	// takes its own, because a backend access can yield to another process
	// using the volume; buffers come back with unspecified contents.
	blocks [][]byte
}

// getBlock takes a scratch block off the free list, or makes one.
func (v *Volume) getBlock() []byte {
	if n := len(v.blocks); n > 0 {
		b := v.blocks[n-1]
		v.blocks = v.blocks[:n-1]
		return b[:BlockSize]
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
	// Every block an entry names lies below nextFree (allocation is
	// append-only), so bounding nextFree by the backend bounds them all.
	if v.nextFree > v.totalBlocks || int64(v.nextFree)*BlockSize > backend.Size() {
		return nil, fmt.Errorf("%w: %d blocks in use of %d", ErrCorrupt, v.nextFree, v.totalBlocks)
	}
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

// readEntry decodes the file-entry block at block, following its
// continuation chain, into e, reusing e's extent list. It leaves e.name
// alone: no reader needs it, and a directory rewrite names the entry from
// its path. Every length is bounded by the block or the blocks in use, so a
// corrupt entry is ErrCorrupt, never a panic or an allocation it sized.
func (v *Volume) readEntry(p *sim.Proc, block uint32, e *entry) error {
	e.extents, e.target, e.next = e.extents[:0], "", 0
	buf := v.getBlock()
	defer v.putBlock(buf)
	for hops := uint32(0); ; hops++ {
		if block >= v.nextFree || hops >= v.nextFree {
			return fmt.Errorf("%w: entry block %d out of range or looping", ErrCorrupt, block)
		}
		if err := v.backend.ReadAt(p, buf, int64(block)*BlockSize); err != nil {
			return err
		}
		if buf[0] != magicEntry {
			return fmt.Errorf("%w: bad entry magic at block %d", ErrCorrupt, block)
		}
		off := 20
		if hops == 0 {
			nameLen, targetLen := int(buf[2]), int(binary.LittleEndian.Uint16(buf[18:]))
			e.typ = buf[1]
			e.size = int64(binary.LittleEndian.Uint64(buf[4:]))
			if off += nameLen + targetLen; off > BlockSize || e.size < 0 || e.size > int64(v.nextFree)*BlockSize {
				return fmt.Errorf("%w: bad name, target or size in entry block %d", ErrCorrupt, block)
			}
			e.target = string(buf[20+nameLen : off])
		}
		n := int(binary.LittleEndian.Uint16(buf[12:]))
		if off+8*n > BlockSize {
			return fmt.Errorf("%w: %d extents overrun entry block %d", ErrCorrupt, n, block)
		}
		for ; n > 0; n-- {
			ext := extent{start: binary.LittleEndian.Uint32(buf[off:]), count: binary.LittleEndian.Uint32(buf[off+4:])}
			if uint64(ext.start)+uint64(ext.count) > uint64(v.nextFree) {
				return fmt.Errorf("%w: extent past the blocks in use in entry block %d", ErrCorrupt, block)
			}
			e.extents = append(e.extents, ext)
			off += 8
		}
		next := binary.LittleEndian.Uint32(buf[14:])
		if next == 0 {
			return nil
		}
		if hops == 0 {
			e.next = next
		}
		block = next
	}
}

// cleanPath returns path.Clean("/"+name), checking that no component is
// longer than 255 bytes. A name that is already clean and absolute, as
// every caller's is, comes back as it is, without allocating.
func cleanPath(name string) (string, error) {
	if !isClean(name) {
		name = path.Clean("/" + name)
	}
	for rest := name[1:]; rest != ""; {
		var comp string
		if comp, rest, _ = strings.Cut(rest, "/"); len(comp) > 255 {
			return "", ErrNameTooLong
		}
	}
	return name, nil
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

// nextDirent decodes the directory record at data[off:]: the child's entry
// block (uint32), its name (uint16 length, then the bytes; the result aliases
// data) and the offset of the next record. Block 0 marks the end of the
// records. Records are scanned in place; nothing decodes them into a list.
func nextDirent(data []byte, off int) (block uint32, name []byte, next int, err error) {
	if off+6 > len(data) {
		return 0, nil, off, nil
	}
	if block = binary.LittleEndian.Uint32(data[off:]); block == 0 {
		return 0, nil, off, nil // padding
	}
	next = off + 6 + int(binary.LittleEndian.Uint16(data[off+4:]))
	if next > len(data) {
		return 0, nil, off, fmt.Errorf("%w: truncated dirent", ErrCorrupt)
	}
	return block, data[off+6 : next], next, nil
}

// findDirent returns the entry block of the record named name (0 if there
// is none) and, when there is none, where the records end.
func findDirent(data []byte, name string) (block uint32, end int, err error) {
	for off := 0; ; {
		b, nm, next, err := nextDirent(data, off)
		if err != nil || b == 0 {
			return 0, off, err
		}
		if string(nm) == name {
			return b, next, nil
		}
		off = next
	}
}

// readDir reads directory e's records into a buffer from the volume's free
// list. The caller puts the buffer back after its last use.
func (v *Volume) readDir(p *sim.Proc, e *entry) ([]byte, error) {
	if e.typ != typeDir {
		return nil, ErrNotDir
	}
	return v.readData(p, e, v.getBlock()[:0])
}

// readData appends the content of e to out, one backend read per extent.
func (v *Volume) readData(p *sim.Proc, e *entry, out []byte) ([]byte, error) {
	out = slices.Grow(out, int(e.size))
	remaining := e.size
	for _, ext := range e.extents {
		n := min(int64(ext.count)*BlockSize, remaining)
		at := len(out)
		out = out[:at+int(n)]
		if err := v.backend.ReadAt(p, out[at:], int64(ext.start)*BlockSize); err != nil {
			return nil, err
		}
		if remaining -= n; remaining <= 0 {
			break
		}
	}
	return out, nil
}

// writeData allocates blocks for data, writes it and appends its extent to
// exts. A short final block is written zero-padded.
func (v *Volume) writeData(p *sim.Proc, data []byte, exts []extent) ([]extent, error) {
	if len(data) == 0 {
		return exts, nil
	}
	nblocks := uint32((int64(len(data)) + BlockSize - 1) / BlockSize)
	start, err := v.alloc(nblocks)
	if err != nil {
		return exts, err
	}
	padded := data
	if rem := len(data) % BlockSize; rem != 0 {
		padded = make([]byte, int64(nblocks)*BlockSize)
		copy(padded, data)
	}
	if err := v.backend.WriteAt(p, padded, int64(start)*BlockSize); err != nil {
		return exts, err
	}
	return append(exts, extent{start: start, count: nblocks}), nil
}

// lookup resolves name, decoding its entry into e, and returns the entry
// block. Each directory on the way is decoded into e as well.
func (v *Volume) lookup(p *sim.Proc, name string, e *entry) (uint32, error) {
	name, err := cleanPath(name)
	if err != nil {
		return 0, err
	}
	block := v.rootEntry
	if err := v.readEntry(p, block, e); err != nil {
		return 0, err
	}
	for rest := name[1:]; rest != ""; {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		data, err := v.readDir(p, e)
		if err != nil {
			return 0, err
		}
		block, _, err = findDirent(data, comp)
		v.putBlock(data)
		if err != nil {
			return 0, err
		}
		if block == 0 {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		if err := v.readEntry(p, block, e); err != nil {
			return 0, err
		}
	}
	return block, nil
}

// MkdirAll creates the directory path and all missing ancestors — the
// "unique file path" redundant-directory mechanism (§4.4).
func (v *Volume) MkdirAll(p *sim.Proc, name string) error {
	var pa parent
	return v.mkdirAll(p, name, &pa)
}

// parent is a directory that gains an entry: the parent of a new file, as
// openParent finds it, or each directory on a path mkdirAll walks.
type parent struct {
	block    uint32 // the directory's entry block
	e        entry  // its entry, named for a rewrite
	data     []byte // its records, in a buffer from the free list
	base     string // the new file's name in it
	existing uint32 // base's entry block, 0 if absent
}

// mkdirAll is MkdirAll, working in pa: each directory on the path is decoded
// into pa.e and its records read into pa.data in turn. It leaves pa.e named
// for the last one.
func (v *Volume) mkdirAll(p *sim.Proc, name string, pa *parent) error {
	if v.finalized {
		return ErrFinalized
	}
	name, err := cleanPath(name)
	if err != nil {
		return err
	}
	pa.block, pa.e.name = v.rootEntry, "/"
	for rest := name[1:]; rest != ""; {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		if err := v.readEntry(p, pa.block, &pa.e); err != nil {
			return err
		}
		if pa.data, err = v.readDir(p, &pa.e); err != nil {
			return err
		}
		next, end, err := findDirent(pa.data, comp)
		if err == nil && next == 0 {
			pa.data = pa.data[:end]
			next, err = v.addChild(p, pa, &entry{typ: typeDir, name: comp})
		} else if err == nil {
			if err = v.readEntry(p, next, &pa.e); err == nil && pa.e.typ != typeDir {
				err = fmt.Errorf("%w: %s", ErrNotDir, comp)
			}
		}
		v.putBlock(pa.data)
		if err != nil {
			return err
		}
		pa.block, pa.e.name = next, comp
	}
	return v.flushDescriptor(p)
}

// addChild allocates and writes child's entry block, then rewrites directory
// pa with its records plus one for child, growing pa.data. The old content
// blocks are abandoned: allocation is append-only, which suits a bucket
// (recycled wholesale) and cannot arise after finalization. It returns the
// child's block.
func (v *Volume) addChild(p *sim.Proc, pa *parent, child *entry) (uint32, error) {
	cb, err := v.alloc(1)
	if err != nil {
		return 0, err
	}
	if err := v.writeEntry(p, cb, child); err != nil {
		return 0, err
	}
	pa.data = binary.LittleEndian.AppendUint32(pa.data, cb)
	pa.data = binary.LittleEndian.AppendUint16(pa.data, uint16(len(child.name)))
	pa.data = append(pa.data, child.name...)
	pa.e.size = int64(len(pa.data))
	// Pad here, in the buffer, so writeData writes the records from it.
	if rem := len(pa.data) % BlockSize; rem != 0 {
		pa.data = append(pa.data, make([]byte, BlockSize-rem)...)
	}
	if pa.e.extents, err = v.writeData(p, pa.data, pa.e.extents[:0]); err != nil {
		return 0, err
	}
	return cb, v.writeEntry(p, pa.block, &pa.e)
}

// placeFile writes file entry fe for pa.base: over base's entry block if it
// exists (its old extents are abandoned; the bucket is recycled wholesale,
// §4.3), else in a new block added to pa. It returns the entry block.
func (v *Volume) placeFile(p *sim.Proc, pa *parent, fe *entry, name string) (uint32, error) {
	if pa.existing == 0 {
		return v.addChild(p, pa, fe)
	}
	if err := v.readEntry(p, pa.existing, &pa.e); err != nil {
		return 0, err
	}
	if pa.e.typ == typeDir {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	return pa.existing, v.writeEntry(p, pa.existing, fe)
}

// openParent creates the parent directories of name, looks the parent up
// and finds name's base in its records. Unless it fails, the caller puts
// pa.data back.
func (v *Volume) openParent(p *sim.Proc, name string, pa *parent) error {
	if v.finalized {
		return ErrFinalized
	}
	name, err := cleanPath(name)
	if err != nil {
		return err
	}
	if name == "/" {
		return ErrIsDir
	}
	i := strings.LastIndexByte(name, '/')
	dir := name[:max(i, 1)]
	if err := v.mkdirAll(p, dir, pa); err != nil {
		return err
	}
	pa.base = name[i+1:]
	if pa.block, err = v.lookup(p, dir, &pa.e); err != nil {
		return err
	}
	if pa.data, err = v.readDir(p, &pa.e); err != nil {
		return err
	}
	var end int
	if pa.existing, end, err = findDirent(pa.data, pa.base); err != nil {
		v.putBlock(pa.data)
		return err
	}
	pa.data = pa.data[:end]
	return nil
}

// WriteFile creates or replaces the file at name with data, creating parent
// directories as needed. Replacement is how bucket-resident files are
// updated (§4.6).
func (v *Volume) WriteFile(p *sim.Proc, name string, data []byte) error {
	var pa parent
	if err := v.openParent(p, name, &pa); err != nil {
		return err
	}
	defer func() { v.putBlock(pa.data) }()
	fe := entry{typ: typeFile, name: pa.base, size: int64(len(data))}
	var err error
	if fe.extents, err = v.writeData(p, data, nil); err != nil {
		return err
	}
	if _, err = v.placeFile(p, &pa, &fe, name); err != nil {
		return err
	}
	return v.flushDescriptor(p)
}

// WriteLink creates a link file at name whose content points at target —
// used on the continuation image of a split file to reference the first
// subfile (§4.5).
func (v *Volume) WriteLink(p *sim.Proc, name, target string) error {
	var pa parent
	if err := v.openParent(p, name, &pa); err != nil {
		return err
	}
	defer func() { v.putBlock(pa.data) }()
	if pa.existing != 0 {
		return fmt.Errorf("%w: %s", ErrExist, name)
	}
	if _, err := v.addChild(p, &pa, &entry{typ: typeLink, name: pa.base, target: target}); err != nil {
		return err
	}
	return v.flushDescriptor(p)
}

// ReadFile returns the content of the file at name.
func (v *Volume) ReadFile(p *sim.Proc, name string) ([]byte, error) {
	var e entry
	if _, err := v.lookup(p, name, &e); err != nil {
		return nil, err
	}
	if e.typ == typeDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	return v.readData(p, &e, make([]byte, 0, e.size))
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
	var e entry
	if _, err := v.lookup(p, name, &e); err != nil {
		return Info{}, err
	}
	clean, _ := cleanPath(name)
	return Info{
		Path:       clean,
		IsDir:      e.typ == typeDir,
		IsLink:     e.typ == typeLink,
		Size:       e.size,
		LinkTarget: e.target,
	}, nil
}

// children reads directory e's records and, for each in turn, decodes the
// child's entry into e and calls fn with the child's name and entry block.
// The name aliases the records buffer, which is put back on return.
func (v *Volume) children(p *sim.Proc, e *entry, fn func(name []byte, block uint32) error) error {
	data, err := v.readDir(p, e)
	if err != nil {
		return err
	}
	defer v.putBlock(data)
	for off := 0; ; {
		block, name, next, err := nextDirent(data, off)
		if err != nil || block == 0 {
			return err
		}
		off = next
		if err := v.readEntry(p, block, e); err != nil {
			return err
		}
		if err := fn(name, block); err != nil {
			return err
		}
	}
}

// ReadDir lists the directory at name, sorted by entry name.
func (v *Volume) ReadDir(p *sim.Proc, name string) ([]DirEntry, error) {
	var e entry
	if _, err := v.lookup(p, name, &e); err != nil {
		return nil, err
	}
	var out []DirEntry
	err := v.children(p, &e, func(name []byte, _ uint32) error {
		out = append(out, DirEntry{Name: string(name), IsDir: e.typ == typeDir, Size: e.size, LinkTarget: e.target})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk visits every entry in the volume depth-first, calling fn with the
// absolute path and info. It is the basis of disc-level recovery (§4.4: "all
// or partial data can be reconstructed by scanning all survived discs").
// A directory reached a second time (a corrupt record pointing back up the
// tree) is ErrCorrupt, not a loop.
func (v *Volume) Walk(p *sim.Proc, fn func(info Info) error) error {
	return v.walk(p, v.rootEntry, "/", map[uint32]bool{v.rootEntry: true}, fn)
}

// walk visits the directory at block; seen holds every directory block
// visited so far.
func (v *Volume) walk(p *sim.Proc, block uint32, dir string, seen map[uint32]bool, fn func(info Info) error) error {
	var e entry
	if err := v.readEntry(p, block, &e); err != nil {
		return err
	}
	return v.children(p, &e, func(name []byte, child uint32) error {
		info := Info{
			Path:       path.Join(dir, string(name)),
			IsDir:      e.typ == typeDir,
			IsLink:     e.typ == typeLink,
			Size:       e.size,
			LinkTarget: e.target,
		}
		if err := fn(info); err != nil || !info.IsDir {
			return err
		}
		if seen[child] {
			return fmt.Errorf("%w: %s is directory block %d, reached before", ErrCorrupt, info.Path, child)
		}
		seen[child] = true
		return v.walk(p, child, info.Path, seen, fn)
	})
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
