package cluster

// Entries returns the namespace size.
func (c *Cluster) Entries() int { return len(c.entries) }

// Size returns the file size at the handle's current replica.
func (f *File) Size() int64 {
	if f.h == nil {
		return 0
	}
	return f.h.Size()
}

// Rack returns the index of the rack currently serving the handle.
func (f *File) Rack() int { return f.ri }
