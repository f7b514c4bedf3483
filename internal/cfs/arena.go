package cfs

import "repro/internal/cache"

// Arena pools the file system's per-study allocations so a worker
// running many studies back to back (core.RunSweep's workers) stops
// paying for them after its first study:
//
//   - file structs (with their open-group maps), returned by
//     FileSystem.Recycle.
//   - Handles, returned when their client is released at the end of
//     its node program, and open groups, returned when their last
//     member closes.
//   - transfer records, by I/O-node count, returned by
//     FileSystem.Recycle. Within a study each call borrows a record
//     from its file system for as long as it is in flight; a file
//     system whose free list is empty takes one from the arena.
//   - the I/O nodes' buffer caches, by capacity, returned by
//     FileSystem.Recycle and reset when New takes one.
//   - block-table pages, returned by FileSystem.Recycle and when a
//     file is deleted (no handle reads a deleted file's table), and
//     refilled with -1 when a table takes one.
//
// A file system given no arena (New's nil) keeps one of its own, so
// even a single study reuses the handles, open groups and block pages
// of finished node programs and deleted files.
//
// An Arena is not safe for concurrent use; give each worker its own.
// The zero value is ready to use.
type Arena struct {
	files   []*file
	handles []*Handle
	groups  []*openGroup
	xfers   map[int][]*xfer      // free transfer records, by len(legs)
	caches  map[int][]*cache.LRU // I/O-node caches, by capacity
	pages   []*blockPage
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

// getXfer returns a pooled transfer record with a leg per I/O node of
// ioNodes, still bound to the file system that built it, or nil when
// there is none.
func (a *Arena) getXfer(ioNodes int) *xfer {
	free := a.xfers[ioNodes]
	n := len(free)
	if n == 0 {
		return nil
	}
	x := free[n-1]
	free[n-1] = nil
	a.xfers[ioNodes] = free[:n-1]
	return x
}

// putXfers pools a file system's free transfer records. Only call once
// no call is in flight (FileSystem.Recycle, after the study).
func (a *Arena) putXfers(xs []*xfer) {
	if len(xs) == 0 {
		return
	}
	if a.xfers == nil {
		a.xfers = make(map[int][]*xfer)
	}
	n := len(xs[0].legs)
	a.xfers[n] = append(a.xfers[n], xs...)
}

// getCache returns an empty LRU cache of the given capacity: a pooled
// one, reset, or a new one.
func (a *Arena) getCache(capacity int) *cache.LRU {
	free := a.caches[capacity]
	n := len(free)
	if n == 0 {
		return cache.NewLRU(capacity)
	}
	c := free[n-1]
	free[n-1] = nil
	a.caches[capacity] = free[:n-1]
	c.Reset()
	return c
}

// putCache pools an I/O node's cache. Only call once no call is in
// flight (FileSystem.Recycle, after the study).
func (a *Arena) putCache(c *cache.LRU) {
	if a.caches == nil {
		a.caches = make(map[int][]*cache.LRU)
	}
	a.caches[c.Capacity()] = append(a.caches[c.Capacity()], c)
}

// getPage returns a block-table page with every entry -1.
func (a *Arena) getPage() *blockPage {
	var p *blockPage
	if n := len(a.pages); n > 0 {
		p = a.pages[n-1]
		a.pages[n-1] = nil
		a.pages = a.pages[:n-1]
	} else {
		p = new(blockPage)
	}
	for j := range p {
		p[j] = -1
	}
	return p
}

// putPages pools a block table's pages and empties the table. Only
// call once nothing reads the table again: its file is deleted, or
// the study is over (FileSystem.Recycle).
func (a *Arena) putPages(t *blockTable) {
	for _, p := range t.pages {
		if p != nil {
			a.pages = append(a.pages, p)
		}
	}
	*t = blockTable{}
}
