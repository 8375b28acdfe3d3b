package pagecache

// DirtyChunks returns the number of chunks awaiting flush.
func (v *Volume) DirtyChunks() int { return len(v.dirty) }
