package mv

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
