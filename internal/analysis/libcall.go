package analysis

import (
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// libCall adapts a call node to the LibCall interface handed to library
// summaries (paper §1: "we provide the analysis with a summary of the
// potential pointer assignments in each library function").
type libCall struct {
	a       *Analysis
	f       *frame
	nd      *cfg.Node
	args    []memmod.ValueSet
	multi   bool
	changed bool
}

// callLibrary applies the summary of an extern function.
func (a *Analysis) callLibrary(f *frame, nd *cfg.Node, name string, args []memmod.ValueSet, multi bool) bool {
	c := &libCall{a: a, f: f, nd: nd, args: args, multi: multi}
	if sum, ok := a.opts.Lib[name]; ok {
		sum(c)
	} else {
		genericSummary(c)
	}
	return c.changed
}

func (c *libCall) NumArgs() int { return len(c.args) }

func (c *libCall) Arg(i int) memmod.ValueSet {
	if i < 0 || i >= len(c.args) {
		return memmod.ValueSet{}
	}
	return c.args[i]
}

func (c *libCall) Deref(v memmod.ValueSet) memmod.ValueSet {
	var out memmod.ValueSet
	for _, l := range v.Locs() {
		out.AddAll(c.a.evalContents(c.f, l, c.nd))
	}
	return out
}

func (c *libCall) Store(dsts, vals memmod.ValueSet) {
	if vals.IsEmpty() {
		return
	}
	for _, dl := range dsts.Locs() {
		c.a.registerRead(c.f, dl.Base, c.nd)
		// Library stores are always weak updates (the summary does
		// not know which byte is written).
		old, found := c.f.ptf.Pts.LookupIn(dl, c.nd, nil)
		if !found {
			old = c.a.getInitial(c.f, dl)
		}
		merged := vals.Clone()
		merged.AddAll(old)
		if dl.Base.AddPtrLoc(dl) {
			c.a.notifyWrite(dl.Base)
		}
		if c.f.ptf.Pts.Assign(dl, merged, c.nd, false) {
			c.changed = true
			c.a.recordSolution(c.f, dl, merged)
		}
	}
}

func (c *libCall) Copy(dst, src memmod.ValueSet, size int64) {
	for _, s := range src.Locs() {
		s = s.Resolve()
		c.a.registerRead(c.f, s.Base, c.nd)
		for _, pl := range s.Base.PtrLocs() {
			rel := pl.Off - s.Off
			if size > 0 && (rel < 0 || rel >= size) && pl.Stride == 0 && s.Stride == 0 {
				continue
			}
			vals, found := c.f.ptf.Pts.LookupIn(pl, c.nd, nil)
			if !found {
				vals = c.a.getInitial(c.f, pl)
			}
			if vals.IsEmpty() {
				continue
			}
			for _, d := range dst.Locs() {
				target := d.Shift(rel)
				if s.Stride != 0 || pl.Stride != 0 || d.Stride != 0 {
					target = d.Unknown()
				}
				c.Store(memmod.Values(target), vals)
			}
		}
	}
}

func (c *libCall) Heap() memmod.ValueSet {
	return memmod.Values(memmod.Loc(c.a.heapBlock(c.nd), 0, 0))
}

func (c *libCall) Return(v memmod.ValueSet) {
	if c.nd.RetDst == nil || v.IsEmpty() {
		return
	}
	dsts := c.a.evalExpr(c.f, c.nd.RetDst, c.nd)
	for _, dl := range dsts.Locs() {
		c.a.registerRead(c.f, dl.Base, c.nd)
		strong := dsts.Len() == 1 && dl.Precise() && !c.multi && !c.f.multiTarget
		merged := v.Clone()
		if !strong {
			old, found := c.f.ptf.Pts.LookupIn(dl, c.nd, nil)
			if !found {
				old = c.a.getInitial(c.f, dl)
			}
			merged.AddAll(old)
		}
		if dl.Base.AddPtrLoc(dl) {
			c.a.notifyWrite(dl.Base)
		}
		if c.f.ptf.Pts.Assign(dl, merged, c.nd, strong) {
			c.changed = true
			c.a.recordSolution(c.f, dl, merged)
		}
	}
}

func (c *libCall) Invoke(targets memmod.ValueSet, args []memmod.ValueSet) {
	syms := c.a.callTargets(c.f, nil, targets)
	for _, sym := range syms {
		fd := c.a.prog.FuncByName[sym.Name]
		if fd == nil || fd.Body == nil {
			continue
		}
		// Callback calls never allow strong updates (the library may
		// invoke them any number of times).
		wasMulti := c.f.multiTarget
		c.f.multiTarget = true
		if c.a.callDefinedRet(c.f, c.nd, fd, args, true, false) {
			c.changed = true
		}
		c.f.multiTarget = wasMulti
	}
}

func (c *libCall) Unknown(v memmod.ValueSet) memmod.ValueSet {
	return v.WithStride(1)
}

func (c *libCall) Free(v memmod.ValueSet) {
	c.a.recordFree(c.f, c.nd, v)
}

// genericSummary conservatively models an unknown external function: it
// may read any pointer reachable from its arguments, store any of them
// anywhere reachable, and return any of them.
func genericSummary(c LibCall) {
	var reach memmod.ValueSet
	for i := 0; i < c.NumArgs(); i++ {
		reach.AddAll(c.Arg(i))
	}
	// Transitive closure (bounded): contents of reachable objects are
	// reachable.
	for i := 0; i < 4; i++ {
		before := reach.Len()
		reach.AddAll(c.Deref(c.Unknown(reach)))
		if reach.Len() == before {
			break
		}
	}
	if reach.IsEmpty() {
		return
	}
	c.Store(c.Unknown(reach), reach)
	c.Return(reach)
	// Any reachable function pointer may be invoked.
	c.Invoke(c.Deref(c.Unknown(reach)), nil)
}
