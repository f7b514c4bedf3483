package cfs

// Arena pools the file system's per-study allocations so a worker
// running many studies back to back (see core.Arena) stops paying for
// them after its first study:
//
//   - file structs (with their open-group maps), returned by
//     FileSystem.Recycle.
//   - Handles, returned when their client is released at the end of
//     its node program, and open groups, returned when their last
//     member closes.
//
// Block tables are not pooled: a table allocates each page once, as
// its file reaches it, and never copies it. Transfer state is not
// pooled here either: each call borrows a record from its file system
// for as long as it is in flight.
//
// An Arena is not safe for concurrent use; give each worker its own.
// The zero value is ready to use.
type Arena struct {
	files   []*file
	handles []*Handle
	groups  []*openGroup
}

// getFile returns a pooled file struct (cleared, with its groups map
// retained), or nil when the pool is empty.
func (a *Arena) getFile() *file {
	if n := len(a.files); n > 0 {
		f := a.files[n-1]
		a.files[n-1] = nil
		a.files = a.files[:n-1]
		return f
	}
	return nil
}

// putFile clears a file struct and pools it. Only call once no handle
// can reach it (FileSystem.Recycle, after the study).
func (a *Arena) putFile(f *file) {
	for job, g := range f.groups {
		a.putGroup(g)
		delete(f.groups, job)
	}
	*f = file{groups: f.groups}
	a.files = append(a.files, f)
}

// getHandle returns a pooled handle, or nil when the pool is empty.
func (a *Arena) getHandle() *Handle {
	if n := len(a.handles); n > 0 {
		h := a.handles[n-1]
		a.handles[n-1] = nil
		a.handles = a.handles[:n-1]
		return h
	}
	return nil
}

// putHandle zeroes a handle and pools it.
func (a *Arena) putHandle(h *Handle) {
	*h = Handle{}
	a.handles = append(a.handles, h)
}

// getGroup returns an empty open group for the given mode.
func (a *Arena) getGroup(mode IOMode) *openGroup {
	if n := len(a.groups); n > 0 {
		g := a.groups[n-1]
		a.groups[n-1] = nil
		a.groups = a.groups[:n-1]
		g.mode = mode
		return g
	}
	return &openGroup{mode: mode}
}

// putGroup clears an open group (keeping its members array) and pools
// it. The group must have no waiters: groups are pooled either when
// their last member closes (no members, hence no waiters) or after
// the simulation has drained.
func (a *Arena) putGroup(g *openGroup) {
	*g = openGroup{members: g.members[:0]}
	a.groups = append(a.groups, g)
}
