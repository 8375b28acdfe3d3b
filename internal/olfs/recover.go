package olfs

import (
	"fmt"
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

// scanResult accumulates namespace facts discovered on one image.
type scannedFile struct {
	img  image.ID
	size int64
	prev map[int]image.ID // continuation order hints from link files
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
	files := make(map[string]map[string]*scannedFile) // path -> imageID -> info
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
			fs.restoreFromMV(restored)
			return nil
		}
		// Fall through to structural recovery on a corrupt snapshot.
	}

	for d := range dirs {
		fs.MV.Restore(mv.Index{Path: d, Dir: true})
	}
	// Internal names carry version suffixes; regroup per base path.
	perBase := make(map[string][]mv.VersionEntry)
	for internal, imgs := range files {
		base, ver := parseVersionName(internal)
		ve := assembleParts(imgs)
		ve.Version = ver
		perBase[base] = append(perBase[base], ve)
	}
	for base, entries := range perBase {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Version < entries[j].Version })
		fs.MV.Restore(mv.Index{Path: base, Entries: entries})
	}
	return nil
}

// parseVersionName splits an internal image path "<base>[.__v<k>]".
func parseVersionName(internal string) (base string, version int) {
	i := strings.LastIndex(internal, ".__v")
	if i < 0 {
		return internal, 1
	}
	var v int
	if _, err := fmt.Sscanf(internal[i+len(".__v"):], "%d", &v); err != nil || v < 2 {
		return internal, 1
	}
	return internal[:i], v
}

// restoreFromMV swaps in a recovered namespace (keeping the live catalog,
// which RecoverNamespace already rebuilt from disc positions).
func (fs *FS) restoreFromMV(restored *mv.Volume) {
	_ = restored.Walk(func(ix *mv.Index) error {
		fs.MV.Restore(*ix)
		return nil
	})
}

// scanDisc mounts one disc and walks its self-descriptive subtree, charging
// real drive-read time for every directory and entry block touched.
func (fs *FS) scanDisc(p *sim.Proc, gi int, drv *optical.Drive, addr image.DiscAddr,
	files map[string]map[string]*scannedFile, dirs map[string]bool,
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
	files map[string]map[string]*scannedFile, dirs map[string]bool,
	snapParts map[string][]byte, bestSnap *string) error {
	imgID := image.ID(vol.ImageID())
	idStr := imgID.String()
	return vol.Walk(p, func(info udf.Info) error {
		switch {
		case info.IsDir:
			if info.Path != MVSnapshotDir && !strings.HasPrefix(info.Path, MVSnapshotDir+"/") {
				dirs[info.Path] = true
			}
		case info.IsLink:
			// "<path>.__rosprev<k>" -> target "image:<32-hex-id><path>".
			base, k, ok := parseLinkName(info.Path)
			if !ok {
				return nil
			}
			prevID, ok := parseLinkTarget(info.LinkTarget)
			if !ok {
				return nil
			}
			sf := fileSlot(files, base, idStr, imgID)
			sf.prev[k] = prevID
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
			sf := fileSlot(files, info.Path, idStr, imgID)
			sf.size = info.Size
		}
		return nil
	})
}

// fileSlot returns (creating) the scan record for path on image idStr.
func fileSlot(files map[string]map[string]*scannedFile, path, idStr string, img image.ID) *scannedFile {
	m := files[path]
	if m == nil {
		m = make(map[string]*scannedFile)
		files[path] = m
	}
	sf := m[idStr]
	if sf == nil {
		sf = &scannedFile{img: img, prev: make(map[int]image.ID)}
		m[idStr] = sf
	}
	return sf
}

// parseLinkName splits "<path>.__rosprev<k>".
func parseLinkName(name string) (base string, k int, ok bool) {
	i := strings.LastIndex(name, ".__rosprev")
	if i < 0 {
		return "", 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name[i+len(".__rosprev"):], "%d", &n); err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

// parseLinkTarget extracts the predecessor image ID from
// "image:<32-hex><path>".
func parseLinkTarget(target string) (image.ID, bool) {
	const pfx = "image:"
	if !strings.HasPrefix(target, pfx) || len(target) < len(pfx)+32 {
		return image.ID{}, false
	}
	id, err := image.Parse(target[len(pfx) : len(pfx)+32])
	if err != nil {
		return image.ID{}, false
	}
	return id, true
}

// assembleParts orders a path's subfiles into a version entry using the
// continuation links.
func assembleParts(imgs map[string]*scannedFile) mv.VersionEntry {
	// Build prev-edges: image B's link names image A as its predecessor.
	prevOf := make(map[string]string) // imageID -> predecessor imageID
	for id, sf := range imgs {
		for _, prev := range sf.prev {
			prevOf[id] = prev.String()
		}
	}
	// Find the head (no predecessor pointing to it from within the set);
	// single-part files trivially have one entry.
	isSuccessor := make(map[string]bool)
	for id := range imgs {
		if pred, ok := prevOf[id]; ok {
			_ = pred
			isSuccessor[id] = true
		}
	}
	var order []string
	var head string
	for id := range imgs {
		if !isSuccessor[id] {
			head = id
			break
		}
	}
	if head == "" { // cycle or missing head: deterministic fallback
		for id := range imgs {
			if head == "" || id < head {
				head = id
			}
		}
	}
	// Chain forward: successor is the image whose prev == current.
	next := make(map[string]string)
	for id, pred := range prevOf {
		next[pred] = id
	}
	for id := head; id != ""; id = next[id] {
		order = append(order, id)
		if len(order) > len(imgs) {
			break
		}
	}
	// Include any unchained leftovers deterministically.
	seen := make(map[string]bool)
	for _, id := range order {
		seen[id] = true
	}
	var rest []string
	for id := range imgs {
		if !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	order = append(order, rest...)

	ve := mv.VersionEntry{Version: 1}
	for _, idStr := range order {
		sf, ok := imgs[idStr]
		if !ok {
			continue
		}
		id, err := image.Parse(idStr)
		if err != nil {
			continue
		}
		ve.Parts = append(ve.Parts, id)
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
	var cat image.Catalog
	if err := vol.LoadState(p, "catalog", &cat); err == nil {
		if cat.DA != nil {
			fs.Cat.DA = cat.DA
		}
		if cat.DIL != nil {
			fs.Cat.DIL = cat.DIL
		}
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
