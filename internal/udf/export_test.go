package udf

import (
	"sort"

	"ros/internal/sim"
)

// DirEntry is one directory listing element.
type DirEntry struct {
	Name  string
	IsDir bool
	Size  int64
	// LinkTarget is non-empty for link files (split-file continuation
	// markers, §4.5).
	LinkTarget string
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

// MkdirAll creates the directory path and all missing ancestors — the
// "unique file path" redundant-directory mechanism (§4.4).
func (v *Volume) MkdirAll(p *sim.Proc, name string) error {
	var pa parent
	return v.mkdirAll(p, name, &pa)
}
