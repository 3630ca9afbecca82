package core

import (
	"slices"

	"repro/internal/profile"
)

// SavedContext is a saved context (Section 4.3): the object whose
// invocation blocked, the invocation's frame, and the continuation it
// restarts at — the "continuation address" of a scheduling-queue item, made
// data. It holds one of three continuations: k, a yielded or deferred
// invocation's; kc, a remote creation's blocked on an empty chunk stock,
// called with the address of the object its reply names (created); or kw, a
// selective reception's, called with the awaited frame, with the patterns
// it awaits (waiting). Such a creation's request and reply carry the record
// itself (Frame.Creator), so a stock miss allocates no closure.
//
// Records are carved from an arena and recycled through the runtime's free
// list when their context resumes, except a retained creation's
// (SaveCreation). A recycled record keeps its pattern buffer, so a blocked
// selective reception allocates nothing once its record has awaited as many
// patterns before.
type SavedContext struct {
	obj     *Object
	frame   *Frame
	k       func(*Ctx)
	kc      func(*Ctx, Address)
	kw      func(*Ctx, *Frame)
	pats    []PatternID
	created *Object

	next   *SavedContext // free-list link
	pooled bool          // recycled when the context resumes
}

// waiting reports whether the record is a selective reception's.
func (s *SavedContext) waiting() bool { return s.kw != nil }

// saveContext returns a recycled or carved record holding obj's blocked
// invocation f and its continuation k.
func (n *NodeRT) saveContext(obj *Object, f *Frame, k func(*Ctx)) *SavedContext {
	r := n.rt
	s := r.savedFree
	if s == nil {
		s = r.saved.New()
	} else {
		r.savedFree = s.next
	}
	*s = SavedContext{obj: obj, frame: f, k: k, pats: s.pats[:0], pooled: true}
	return s
}

// saveWait returns a record holding obj's selective reception: its blocked
// invocation f, the continuation k and a copy of the awaited patterns.
func (n *NodeRT) saveWait(obj *Object, f *Frame, k func(*Ctx, *Frame), pats []PatternID) *SavedContext {
	s := n.saveContext(obj, f, nil)
	s.kw = k
	s.pats = append(s.pats, pats...)
	return s
}

// freeSaved returns a pooled record to the free list.
func (n *NodeRT) freeSaved(s *SavedContext) {
	if s.pooled {
		*s = SavedContext{next: n.rt.savedFree, pats: s.pats[:0]}
		n.rt.savedFree = s
	}
}

// SaveCreation saves the context of ctx's invocation — the executing
// object, its frame and k — for a remote creation that found its chunk
// stock empty, in the record it returns, which the creation request and its
// reply carry back to ResumeCreation; the caller then blocks ctx
// (BlockExternal). A retained record is allocated singly and never
// recycled, and its frame is pinned out of the frame pool: under
// checkpointing, retention may replay the request and reply after the
// creator has resumed, and the replayed resume must find both intact.
func (n *NodeRT) SaveCreation(ctx *Ctx, k func(*Ctx, Address), retained bool) *SavedContext {
	if retained {
		ctx.f.pooled = false
		return &SavedContext{obj: ctx.self, frame: ctx.f, kc: k}
	}
	s := n.saveContext(ctx.self, ctx.f, nil)
	s.kc = k
	return s
}

// ResumeCreation parks a blocked creation's saved context for the
// scheduling queue, to continue with the created address addr: the inverse
// of SaveCreation and BlockExternal, run on the creator's node when the
// reply arrives.
func (n *NodeRT) ResumeCreation(s *SavedContext, addr Address) {
	n.C.HeapFrames++
	n.node.SetPath(profile.Create)
	n.node.Charge(n.cost.SaveContext)
	s.created = addr.Obj
	n.deferResume(s)
}

// deferResume parks a saved context for scheduling-queue resumption. Serial
// objects use the single resume slot (at most one live invocation); a
// multiactive object may defer several contexts at once, so they queue FIFO
// in its multi state.
func (n *NodeRT) deferResume(s *SavedContext) {
	obj := s.obj
	if obj.multi != nil {
		obj.multi.resume = append(obj.multi.resume, s)
	} else {
		obj.saved = s
	}
	n.enqueueSched(obj)
}

// restoreContext restores a parked saved context: its record goes back to
// the free list, and its continuation runs on a context of its own.
func (n *NodeRT) restoreContext(s *SavedContext) {
	obj, f, k, kc, created := s.obj, s.frame, s.k, s.kc, s.created
	n.freeSaved(s)
	n.node.Charge(n.cost.RestoreContext)
	if kc != nil {
		n.invoke(obj, f, func(ctx *Ctx) { kc(ctx, created.Addr()) }, false)
		return
	}
	n.invoke(obj, f, k, false)
}

// image returns a copy of the record's contents for a snapshot: the live
// record returns to the free list when it resumes, so an image must not
// hold it by reference.
func (s *SavedContext) image() *SavedContext {
	return &SavedContext{obj: s.obj, frame: s.frame, k: s.k, kc: s.kc, kw: s.kw,
		pats: slices.Clone(s.pats), created: s.created}
}

// copySaved returns a fresh record holding an image's contents, for a
// restored object's saved context.
func (n *NodeRT) copySaved(img *SavedContext) *SavedContext {
	s := n.saveWait(img.obj, img.frame, img.kw, img.pats)
	s.k, s.kc, s.created = img.k, img.kc, img.created
	return s
}
