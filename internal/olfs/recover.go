package olfs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/optical"
	"ros/internal/pagecache"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
)

// MVSnapshotDir is the namespace subtree holding periodic MV checkpoints
// that get burned to disc with everything else (§4.2: "MV is periodically
// burned into discs").
const MVSnapshotDir = "/.rosmv"

// snapshotChunk bounds one MV snapshot file so a snapshot spreads across
// buckets/discs naturally.
const snapshotChunk = 64 << 20

// BurnMVSnapshot serializes MV and writes it into the normal write path as
// /.rosmv/snap-<n>/part-<i> files; they are burned with the surrounding
// images. Returns the snapshot sequence number.
func (fs *FS) BurnMVSnapshot(p *sim.Proc) (int, error) {
	body, err := fs.MV.CheckpointBytes()
	if err != nil {
		return 0, err
	}
	seq := int(fs.mvSnapSeq())
	for i := 0; len(body) > 0; i++ {
		n := snapshotChunk
		if n > len(body) {
			n = len(body)
		}
		name := fmt.Sprintf("%s/snap-%06d/part-%04d", MVSnapshotDir, seq, i)
		if err := fs.WriteFile(p, name, body[:n]); err != nil {
			return 0, err
		}
		body = body[n:]
	}
	return seq, nil
}

// mvSnapSeq returns the next MV snapshot sequence number.
func (fs *FS) mvSnapSeq() int64 {
	fs.snapSeq++
	return fs.snapSeq
}

// seedMVSnapSeq sets the snapshot count to the highest snap-NNNNNN already
// under MVSnapshotDir, so the next snapshot never reuses a name. Reopen calls
// it on the MV it loads; New starts from an empty MV, and so from 0.
func (fs *FS) seedMVSnapSeq() {
	fs.snapSeq = 0
	prefix := MVSnapshotDir + "/snap-"
	_ = fs.MV.Walk(func(ix *mv.Index) error {
		rest, ok := strings.CutPrefix(ix.Path, prefix)
		if !ok {
			return nil
		}
		digits, _, _ := strings.Cut(rest, "/")
		if n, err := strconv.ParseInt(digits, 10, 64); err == nil && n > fs.snapSeq {
			fs.snapSeq = n
		}
		return nil
	})
}

// scannedFile is what one image holds of one internal name: its bytes'
// length and which part of the file they are (the index of the image's link,
// 0 without one).
type scannedFile struct {
	img  image.ID
	size int64
	part int
}

// RecoverNamespace rebuilds the global namespace by mechanically loading the
// given trays and scanning every disc's self-descriptive UDF subtree (§4.4:
// "all or partial data can be reconstructed by scanning all survived
// discs"). It restores MV indexes (version numbers are lost — entries come
// back as version 1 — unless an MV snapshot is found, which is then applied
// for full fidelity) and rebuilds the DIL/DA catalogs.
//
// The §5.2 experiment — recovering MV from 120 discs in about half an hour —
// is this path: trays load through the robotic arm (~70 s each), and all 12
// discs of a tray are scanned in parallel through their drives.
func (fs *FS) RecoverNamespace(p *sim.Proc, trays []rack.TrayID) error {
	files := make(map[string]map[image.ID]*scannedFile) // internal name -> image -> info
	dirs := make(map[string]bool)
	var bestSnap string
	snapParts := make(map[string][]byte)

	for _, tray := range trays {
		gi, err := fs.fetchTray(p, tray, sched.Interactive)
		if err != nil {
			return fmt.Errorf("olfs: recover fetch %v: %w", tray, err)
		}
		g := fs.lib.Groups[gi]
		// Scan the 12 discs in parallel.
		var scanned []int
		for pos, drv := range g.Drives {
			if drv.Loaded() && !drv.Disc().Blank() {
				scanned = append(scanned, pos)
			}
		}
		// Unreadable discs are skipped: partial recovery is the point.
		_ = p.Fork("scan", len(scanned), func(sp *sim.Proc, k int) error {
			pos := scanned[k]
			return fs.scanDisc(sp, gi, g.Drives[pos], image.DiscAddr{Tray: tray, Pos: pos}, files, dirs, snapParts, &bestSnap)
		})
		fs.Cat.SetDAState(tray, image.DAUsed)
	}

	// Also scan buffer-resident images (unburned buckets and recovered or
	// cached copies survive on the disk tier across an MV loss).
	for _, b := range fs.Buckets.Slots() {
		if b.Vol == nil || b.Raw {
			continue
		}
		_ = fs.scanVolume(p, b.Vol, files, dirs, snapParts, &bestSnap)
	}

	// Prefer a complete MV snapshot when one was found.
	if bestSnap != "" {
		var body []byte
		var names []string
		for name := range snapParts {
			if strings.HasPrefix(name, bestSnap+"/") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			body = append(body, snapParts[n]...)
		}
		restored, err := mv.Restore(fs.env, fs.mvStore, mv.DefaultOpCost, body)
		if err == nil {
			return fs.restoreFromMV(restored)
		}
		// Fall through to structural recovery on a corrupt snapshot.
	}

	for d := range dirs {
		if err := fs.MV.Restore(mv.Index{Path: d, Dir: true}); err != nil {
			return err
		}
	}
	// Internal names carry version suffixes; regroup per base path.
	perBase := make(map[string][]mv.VersionEntry)
	for internal, imgs := range files {
		base, ver := parseVersionName(internal)
		perBase[base] = append(perBase[base], assembleParts(imgs, ver))
	}
	for base, entries := range perBase {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Version < entries[j].Version })
		if err := fs.MV.Restore(mv.Index{Path: base, Entries: entries}); err != nil {
			return err
		}
	}
	return nil
}

// parseVersionName splits an internal image path "<base>[.__v<k>]" (see
// internalName). Only decimal digits up to the end of the last path element
// make a version suffix.
func parseVersionName(internal string) (base string, version int) {
	base, v, ok := cutNumber(internal, versionMark)
	if !ok || v < 2 {
		return internal, 1
	}
	return base, v
}

// restoreFromMV swaps in a recovered namespace (keeping the live catalog,
// which RecoverNamespace already rebuilt from disc positions).
func (fs *FS) restoreFromMV(restored *mv.Volume) error {
	return restored.Walk(func(ix *mv.Index) error { return fs.MV.Restore(*ix) })
}

// scanDisc mounts one disc and walks its self-descriptive subtree, charging
// real drive-read time for every directory and entry block it reads off the
// disc. A just-burned disc's mount holds its namespace (mountBurned) and
// reads none.
func (fs *FS) scanDisc(p *sim.Proc, gi int, drv *optical.Drive, addr image.DiscAddr,
	files map[string]map[image.ID]*scannedFile, dirs map[string]bool,
	snapParts map[string][]byte, bestSnap *string) error {
	vol, err := fs.mountDrive(p, gi, drv)
	if err != nil {
		return err
	}
	fs.Cat.Place(image.ID(vol.ImageID()), addr)
	return fs.scanVolume(p, vol, files, dirs, snapParts, bestSnap)
}

// scanVolume walks one image's namespace subtree into the recovery maps.
func (fs *FS) scanVolume(p *sim.Proc, vol *udf.Volume,
	files map[string]map[image.ID]*scannedFile, dirs map[string]bool,
	snapParts map[string][]byte, bestSnap *string) error {
	imgID := image.ID(vol.ImageID())
	return vol.Walk(p, func(info udf.Info) error {
		switch {
		case info.IsDir:
			if info.Path != MVSnapshotDir && !strings.HasPrefix(info.Path, MVSnapshotDir+"/") {
				dirs[info.Path] = true
			}
		case info.IsLink:
			// The image holding link k of a split file holds its part k.
			if base, k, ok := cutNumber(info.Path, linkMark); ok {
				fileSlot(files, base, imgID).part = k
			}
		case strings.HasPrefix(info.Path, MVSnapshotDir+"/"):
			data, err := vol.ReadFile(p, info.Path)
			if err != nil {
				return nil // damaged snapshot part: structural recovery still works
			}
			snapParts[info.Path] = data
			dir := info.Path[:strings.LastIndex(info.Path, "/")]
			if dir > *bestSnap {
				*bestSnap = dir
			}
		default:
			fileSlot(files, info.Path, imgID).size = info.Size
		}
		return nil
	})
}

// fileSlot returns (creating) the scan record for path on image img.
func fileSlot(files map[string]map[image.ID]*scannedFile, path string, img image.ID) *scannedFile {
	m := files[path]
	if m == nil {
		m = make(map[image.ID]*scannedFile)
		files[path] = m
	}
	sf := m[img]
	if sf == nil {
		sf = &scannedFile{img: img}
		m[img] = sf
	}
	return sf
}

// assembleParts orders a path's subfiles into the given version's entry by
// the part index each image's link carries, image ID breaking ties.
func assembleParts(imgs map[image.ID]*scannedFile, version int) mv.VersionEntry {
	order := make([]*scannedFile, 0, len(imgs))
	for _, sf := range imgs {
		order = append(order, sf)
	}
	slices.SortFunc(order, func(a, b *scannedFile) int {
		return cmp.Or(cmp.Compare(a.part, b.part), bytes.Compare(a.img[:], b.img[:]))
	})
	ve := mv.VersionEntry{Version: version}
	for _, sf := range order {
		ve.Parts = append(ve.Parts, sf.img)
		ve.PartLens = append(ve.PartLens, sf.size)
		ve.Size += sf.size
	}
	return ve
}

// Reopen reconstructs an FS after a controller crash/replacement: MV is
// loaded from its checkpoint on the RAID-1 backend, the catalog from MV
// system state, and buffer-resident buckets are rediscovered by probing the
// buffer slots for UDF volumes (§4.2 crash recovery).
func Reopen(env *sim.Env, p *sim.Proc, cfg Config, lib *rack.Library, mvBackend mv.Backend, buffer *pagecache.Volume) (*FS, error) {
	fs, err := New(env, cfg, lib, mvBackend, buffer)
	if err != nil {
		return nil, err
	}
	vol, err := mv.Load(env, p, mvBackend, mv.DefaultOpCost)
	if err != nil {
		return nil, err
	}
	vol.AttachObs(fs.obs)
	fs.MV = vol
	fs.seedMVSnapSeq()
	// A checkpoint without a catalog opens empty; one whose catalog does not
	// decode is refused, since an empty catalog would hide every burned
	// image and every Used tray.
	cat := image.NewCatalog()
	switch err := vol.LoadState(p, "catalog", cat); {
	case err == nil:
		fs.Cat = cat
	case !errors.Is(err, mv.ErrNotFound):
		return nil, fmt.Errorf("olfs: reopen catalog: %w", err)
	}
	// Probe buffer slots.
	for _, b := range fs.Buckets.Slots() {
		v, err := udf.Open(p, b.Backend())
		if err != nil {
			continue // blank or raw parity slot: treated as free
		}
		fs.Buckets.Adopt(b, v)
		if _, burned := fs.Cat.Locate(v.ImageID()); burned {
			_ = fs.Buckets.MarkBurning(b)
			_ = fs.Buckets.MarkBurned(b)
		} else if !v.Finalized() {
			// Re-opened unsealed bucket: continue filling it.
			fs.cur = b
		}
	}
	return fs, nil
}

// Checkpoint persists MV (with catalog state) to its backend — the crash-
// consistency point.
func (fs *FS) Checkpoint(p *sim.Proc) error {
	if err := fs.MV.SaveState(p, "catalog", fs.Cat); err != nil {
		return err
	}
	_, err := fs.MV.Checkpoint(p)
	return err
}
