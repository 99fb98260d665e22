package prog

import (
	"fmt"

	"opgate/internal/isa"
)

// Editor rewrites a program symbolically: instructions become nodes whose
// branch targets are node references instead of indices, so regions can be
// cloned, guards inserted, and dead instructions removed without manual
// target arithmetic. Build() re-linearises everything back into a Program.
//
// This is the mechanism under the VRS transformation (§3.4): "VRS basically
// duplicates the regions of code that are affected by the specialization,
// and then inserts tests to dynamically select the region".
type Editor struct {
	src   *Program
	funcs [][]*Node // node list per function, in layout order
	byIdx []*Node   // original instruction index -> node
}

// Node is one editable instruction. Target (when the instruction branches
// within its function) references another node; Callee (for JSR) references
// a function index.
type Node struct {
	Ins     isa.Instruction
	Target  *Node
	Callee  int // function index for JSR, else -1
	fn      int
	origIdx int // original instruction index, or -1 for new nodes
	deleted bool
}

// NewEditor converts the program into symbolic form.
func NewEditor(p *Program) *Editor {
	e := &Editor{
		src:   p,
		funcs: make([][]*Node, len(p.Funcs)),
		byIdx: make([]*Node, len(p.Ins)),
	}
	for fi, f := range p.Funcs {
		for i := f.Start; i < f.End; i++ {
			n := &Node{Ins: p.Ins[i], Callee: -1, fn: fi, origIdx: i}
			e.funcs[fi] = append(e.funcs[fi], n)
			e.byIdx[i] = n
		}
	}
	// Resolve targets.
	for _, nodes := range e.funcs {
		for _, n := range nodes {
			op := n.Ins.Op
			if !isa.IsBranch(op) || op == isa.OpRET {
				continue
			}
			if op == isa.OpJSR {
				if cf := p.FuncOf(n.Ins.Target); cf != nil {
					n.Callee = cf.Index
				}
				continue
			}
			n.Target = e.byIdx[n.Ins.Target]
		}
	}
	return e
}

// NodeAt returns the node for an original instruction index.
func (e *Editor) NodeAt(idx int) *Node {
	if idx < 0 || idx >= len(e.byIdx) {
		return nil
	}
	return e.byIdx[idx]
}

// posOf locates a node within its function list.
func (e *Editor) posOf(n *Node) int {
	for i, m := range e.funcs[n.fn] {
		if m == n {
			return i
		}
	}
	return -1
}

// InsertBeforeNoRedirect places a new instruction before anchor without
// retargeting incoming branches (used for fall-through-only sequencing).
// The new node is returned (set its Target with SetTarget if it branches).
func (e *Editor) InsertBeforeNoRedirect(anchor *Node, ins isa.Instruction) *Node {
	n := &Node{Ins: ins, Callee: -1, fn: anchor.fn, origIdx: -1}
	pos := e.posOf(anchor)
	list := e.funcs[anchor.fn]
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = n
	e.funcs[anchor.fn] = list
	return n
}

// SetTarget points a branch node at a destination node.
func (e *Editor) SetTarget(n, target *Node) { n.Target = target }

// Replace swaps the instruction at a node, preserving its target.
func (e *Editor) Replace(n *Node, ins isa.Instruction) { n.Ins = ins }

// Delete removes a node; branches that targeted it are redirected to the
// next live node in layout order (its fall-through successor).
func (e *Editor) Delete(n *Node) {
	n.deleted = true
	next := e.nextLive(n)
	for _, nodes := range e.funcs {
		for _, m := range nodes {
			if m.Target == n {
				m.Target = next
			}
		}
	}
}

func (e *Editor) nextLive(n *Node) *Node {
	list := e.funcs[n.fn]
	pos := e.posOf(n)
	for i := pos + 1; i < len(list); i++ {
		if !list[i].deleted {
			return list[i]
		}
	}
	return nil
}

// CloneRange clones the contiguous original-instruction range [start, end)
// of function fi, appending the clone at the end of the function. Branches
// inside the range that target within the range are remapped to the clone;
// targets outside stay on the originals. If the last cloned instruction can
// fall through, an explicit BR to the node at `end` is appended so the
// clone rejoins the original control flow. The clone's entry node and the
// original-index->clone mapping are returned.
func (e *Editor) CloneRange(fi, start, end int) (*Node, map[int]*Node, error) {
	f := e.src.Funcs[fi]
	if start < f.Start || end > f.End || start >= end {
		return nil, nil, fmt.Errorf("edit: range [%d,%d) outside function %s [%d,%d)", start, end, f.Name, f.Start, f.End)
	}
	mapping := make(map[int]*Node, end-start)
	var clones []*Node
	for i := start; i < end; i++ {
		orig := e.byIdx[i]
		if orig.deleted {
			continue
		}
		c := &Node{Ins: orig.Ins, Target: orig.Target, Callee: orig.Callee, fn: fi, origIdx: -1}
		mapping[i] = c
		clones = append(clones, c)
	}
	if len(clones) == 0 {
		return nil, nil, fmt.Errorf("edit: range [%d,%d) fully deleted", start, end)
	}
	// Remap internal targets.
	for _, c := range clones {
		if c.Target == nil {
			continue
		}
		ti := c.Target.origIdx
		if ti >= start && ti < end {
			if m := mapping[ti]; m != nil {
				c.Target = m
			}
		}
	}
	// Rejoin: if the last instruction can fall through, branch back to
	// the instruction after the range (or function end behaviour).
	last := clones[len(clones)-1].Ins
	fallsThrough := true
	switch last.Op {
	case isa.OpBR, isa.OpRET, isa.OpHALT:
		fallsThrough = false
	}
	if fallsThrough && end < f.End {
		join := e.byIdx[end]
		br := &Node{Ins: isa.Instruction{Op: isa.OpBR}, Target: join, Callee: -1, fn: fi, origIdx: -1}
		clones = append(clones, br)
	}
	e.funcs[fi] = append(e.funcs[fi], clones...)
	return clones[0], mapping, nil
}

// Walk visits every node in layout order, flagging deleted ones. The
// order of live nodes matches the instruction order produced by Build.
func (e *Editor) Walk(fn func(n *Node, deleted bool)) {
	for _, nodes := range e.funcs {
		for _, n := range nodes {
			fn(n, n.deleted)
		}
	}
}

// Build linearises the edited nodes into a fresh Program with recomputed
// function boundaries, branch targets, labels, and analysis structures.
func (e *Editor) Build() (*Program, error) {
	q := &Program{
		Data:     append([]byte(nil), e.src.Data...),
		DataBase: e.src.DataBase,
		MemSize:  e.src.MemSize,
		Entry:    e.src.Entry,
		Labels:   make(map[string]int),
	}
	index := make(map[*Node]int)
	for fi, nodes := range e.funcs {
		f := &Func{Name: e.src.Funcs[fi].Name, Index: fi, Start: len(q.Ins)}
		for _, n := range nodes {
			if n.deleted {
				continue
			}
			index[n] = len(q.Ins)
			q.Ins = append(q.Ins, n.Ins)
		}
		f.End = len(q.Ins)
		q.Funcs = append(q.Funcs, f)
	}
	// Fix targets.
	pos := 0
	for _, nodes := range e.funcs {
		for _, n := range nodes {
			if n.deleted {
				continue
			}
			in := &q.Ins[pos]
			pos++
			switch {
			case in.Op == isa.OpJSR:
				if n.Callee >= 0 {
					in.Target = q.Funcs[n.Callee].Start
				}
			case isa.IsBranch(in.Op) && in.Op != isa.OpRET:
				if n.Target == nil || n.Target.deleted {
					return nil, fmt.Errorf("edit: branch at new index %d has no live target", pos-1)
				}
				ti, ok := index[n.Target]
				if !ok {
					return nil, fmt.Errorf("edit: branch target not linearised")
				}
				in.Target = ti
			}
		}
	}
	// Labels follow their original node when it survives.
	for name, oldIdx := range e.src.Labels {
		if oldIdx >= 0 && oldIdx < len(e.byIdx) {
			if n := e.byIdx[oldIdx]; n != nil && !n.deleted {
				if ni, ok := index[n]; ok {
					q.Labels[name] = ni
				}
			}
		}
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("edit: built program invalid: %w", err)
	}
	if err := q.Analyze(); err != nil {
		return nil, fmt.Errorf("edit: built program analysis: %w", err)
	}
	return q, nil
}
