package core

import (
	"repro/internal/workload"
)

// iterm is one affine term of an access index with the dim interned: the
// form the hot volume formulas iterate so they compare int32 ids instead of
// hashing strings. dim is -1 for dims outside the structure's universe,
// which match no loop — exactly the string behavior, since every valid
// loop dim is an operator dim and therefore interned.
type iterm struct {
	dim  int32
	coef int64
}

// internAccess interns an access's index expression against the
// structure's dim universe.
func internAccess(st *structure, acc workload.Access) [][]iterm {
	out := make([][]iterm, len(acc.Index))
	for i, ix := range acc.Index {
		terms := make([]iterm, len(ix.Terms))
		for j, term := range ix.Terms {
			d := int32(-1)
			if id, ok := st.dimID[term.Dim]; ok {
				d = int32(id)
			}
			terms[j] = iterm{dim: d, coef: int64(term.Coef)}
		}
		out[i] = terms
	}
	return out
}

// dimMaskOf converts a dim-name set to a mask over interned ids. Names
// outside the universe are dropped: they can never match a valid loop dim,
// so the mask tests are equivalent to the map lookups they replace.
func dimMaskOf(st *structure, dims map[string]bool) []bool {
	m := make([]bool, st.numDims)
	for d := range dims {
		if id, ok := st.dimID[d]; ok {
			m[id] = true
		}
	}
	return m
}

// sliceExtentsInto computes the per-tensor-dimension slice extents of an
// access at node n (along the path to leaf), per Sec 5.1.1: for each
// dimension the extent e−b stays constant over time steps and equals
// 1 + Σ coef·(stepCov(dim)−1) over the affine terms of the index expression.
// The result is written into dst, which must have len(acc.Index) capacity.
// This string-keyed form interns on the fly for cold callers and tests;
// the hot paths hold precomputed iterms and call sliceExtentsIntoI.
func (t *tree) sliceExtentsInto(dst []int64, n, leaf int, acc workload.Access) []int64 {
	return t.sliceExtentsIntoI(dst, n, leaf, internAccess(t.st, acc))
}

func (t *tree) sliceExtentsIntoI(dst []int64, n, leaf int, iix [][]iterm) []int64 {
	dst = dst[:len(iix)]
	for i, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.stepCovID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		dst[i] = e
	}
	return dst
}

// sliceVolume is the product of the slice extents: the size in words of the
// data slice one time step of node n touches for this access.
func (t *tree) sliceVolume(n, leaf int, acc workload.Access) int64 {
	return t.sliceVolumeI(n, leaf, internAccess(t.st, acc))
}

func (t *tree) sliceVolumeI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.stepCovID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// sliceVolumePerInstanceI is the slice volume seen by ONE hardware instance
// at the node's level: the node's own spatial loops partition the slice
// across instances, so their extents are excluded. Used for per-instance
// buffer footprints.
func (t *tree) sliceVolumePerInstanceI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.covBelowID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// coveredVolumePerInstanceI is the swept footprint one hardware instance at
// the node's level touches over a full execution: full coverage of the
// node's temporal loops and everything below, excluding the node's own
// spatial partitioning. Used by the wrap-around retention test.
func (t *tree) coveredVolumePerInstanceI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			cov := t.covAtID(n, leaf, term.dim) / max(1, t.spatialExtentAt(n, term.dim))
			e += term.coef * int64(cov-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// coveredVolumeI is the slice volume with extents computed from the full
// coverage of node n (all its loops, not one step): the distinct data the
// whole execution of n touches through this access.
func (t *tree) coveredVolumeI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.covAtID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// temporalLoops lists node n's temporal loops outermost first.
func temporalLoops(n *Node) []Loop {
	return temporalLoopsInto(nil, n)
}

// temporalLoopsInto is temporalLoops appending into a caller-owned buffer.
func temporalLoopsInto(dst []Loop, n *Node) []Loop {
	for _, l := range n.Loops {
		if l.Kind == Temporal {
			dst = append(dst, l)
		}
	}
	return dst
}

// stridesInto computes, for each temporal loop of n (outer..inner), the
// number of elements of its dimension that one advance of that loop shifts
// the slice window by: the step coverage of the dimension times the extents
// of any inner temporal loops over the same dimension at this node. Results
// are appended into dst.
func (t *tree) stridesInto(dst []int64, n, leaf int, tloops []Loop) []int64 {
	for k, lk := range tloops {
		s := int64(t.stepCov(n, leaf, lk.Dim))
		for j := k + 1; j < len(tloops); j++ {
			if tloops[j].Dim == lk.Dim {
				s *= int64(tloops[j].Extent)
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// strides is stridesInto with a fresh result slice (tests and cold paths).
func (t *tree) strides(n, leaf int, tloops []Loop) []int64 {
	return t.stridesInto(make([]int64, 0, len(tloops)), n, leaf, tloops)
}

// stridesIntoI is stridesInto on interned dim ids: tldims[k] is the interned
// dim of tloops[k].
func (t *tree) stridesIntoI(dst []int64, n, leaf int, tloops []Loop, tldims []int32) []int64 {
	for k := range tloops {
		s := int64(t.stepCovID(n, leaf, tldims[k]))
		for j := k + 1; j < len(tloops); j++ {
			if tldims[j] == tldims[k] {
				s *= int64(tloops[j].Extent)
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// perExecDM implements the single-tile data-movement formula of Sec 5.1.1:
// the total volume moved across the node's upper boundary during one
// complete execution of node n for the given access. It equals the
// compulsory full slice plus, for every temporal-loop boundary t_k, the
// slice set-difference when loop k advances one chunk and all loops inner
// to it reset, weighted by how often that boundary occurs:
//
//	DM = |Slice| + Σ_k (e_k−1)·Π_{m outer of k} e_m · Δ_k
//
// This reproduces the worked Figure 5 example (168 elements for tensor A).
//
// retain enables wrap-around retention: when a boundary's advancing loop
// does not index the tensor, the "new" slice revisits data the current
// sweep already touched, and if the whole swept footprint fits comfortably
// in this node's buffer the revisit is a hit, not a refetch. (Without a
// capacity model this is the paper's documented overestimation — "it
// assumes data replacement happens for every outer iteration"; with one,
// the model matches the polyhedron baselines on single operators.)
//
// All intermediate vectors live in the evaluator's scratch arena, so
// steady-state calls allocate nothing. This string-keyed form interns the
// access on the fly for tests and cold callers; the hot paths hold the
// precomputed iterms and call perExecDMI.
func (e *evaluator) perExecDM(n, leaf int, acc workload.Access, retain bool) float64 {
	return e.perExecDMI(n, leaf, internAccess(e.t.st, acc), retain)
}

func (e *evaluator) perExecDMI(n, leaf int, iix [][]iterm, retain bool) float64 {
	t, s := e.t, e.s
	if cap(s.exts) < len(iix) {
		s.exts = make([]int64, len(iix))
	}
	exts := t.sliceExtentsIntoI(s.exts[:0], n, leaf, iix)
	vfull := int64(1)
	for _, ext := range exts {
		vfull *= ext
	}
	s.tloops = s.tloops[:0]
	s.tldims = s.tldims[:0]
	ld := t.ldim[n]
	for li, l := range t.nodeSet[n].Loops {
		if l.Kind == Temporal {
			s.tloops = append(s.tloops, l)
			s.tldims = append(s.tldims, ld[li])
		}
	}
	tloops, tldims := s.tloops, s.tldims
	if len(tloops) == 0 {
		return float64(vfull)
	}
	s.strides = t.stridesIntoI(s.strides[:0], n, leaf, tloops, tldims)
	strides := s.strides

	total := float64(vfull)
	outerProd := int64(1) // effective product of extents of loops outer of k
	for k, lk := range tloops {
		if retain {
			// Loops that do not index the tensor neither move its slice
			// nor — under retention — force inner sweeps to refetch:
			// their effective trip count for movement collapses to 1.
			advances := false
			for _, terms := range iix {
				for _, term := range terms {
					if term.dim == tldims[k] {
						advances = true
					}
				}
			}
			if !advances {
				continue
			}
		}
		// Overlap of the new slice with the old one, per tensor dim: the
		// net shift of each iteration dimension when loop k advances and
		// loops inner to it wrap back to their lower bounds is the
		// k-stride on lk.Dim minus the full inner sweeps of the dim.
		overlap := int64(1)
		for i, terms := range iix {
			var d int64
			for _, term := range terms {
				var shift int64
				if term.dim == tldims[k] {
					shift = strides[k]
				}
				for j := k + 1; j < len(tloops); j++ {
					if tldims[j] == term.dim {
						shift -= int64(tloops[j].Extent-1) * strides[j]
					}
				}
				d += term.coef * shift
			}
			if d < 0 {
				d = -d
			}
			ov := exts[i] - d
			if ov < 0 {
				ov = 0
			}
			overlap *= ov
		}
		diff := float64(vfull - overlap)
		mult := float64(int64(lk.Extent-1) * outerProd)
		total += mult * diff
		outerProd *= int64(lk.Extent)
	}
	return total
}

// accessRef is one (leaf, access) occurrence of a tensor in a subtree, with
// the access's iteration-dim set precomputed. The leaf is identified by its
// pre-order id so the reference stays valid across tiling re-binds. iix and
// mask are the interned forms of acc.Index and dims, shared read-only by
// every node's group that folds this reference in.
type accessRef struct {
	leafID int
	op     *workload.Operator
	acc    workload.Access
	dims   map[string]bool
	iix    [][]iterm
	mask   []bool
	// maxWords bounds coveredVolumePerInstance over all valid tilings:
	// validation pins each dim's full leaf-to-root coverage to exactly the
	// operator's dim size, so no sub-path coverage can exceed it. When the
	// bound already fits the retention budget the evaluator skips the
	// per-tiling covered-volume walk.
	maxWords int64
}

// accessMaxWords computes the accessRef.maxWords bound from the operator's
// dim sizes: per tensor dim, extents peak at 1 + Σ coef·(size−1) over the
// positive-coefficient terms (negative terms only shrink the extent, and
// extents clamp at 1).
func accessMaxWords(op *workload.Operator, acc workload.Access) int64 {
	v := int64(1)
	for _, ix := range acc.Index {
		e := int64(1)
		for _, term := range ix.Terms {
			if term.Coef <= 0 {
				continue
			}
			size := op.DimSize(term.Dim)
			if size < 1 {
				size = 1
			}
			e += int64(term.Coef) * int64(size-1)
		}
		v *= e
	}
	return v
}

// tensorGroup aggregates every access to one tensor by operators in a
// node's subtree, split by direction, with the per-direction invocation dim
// sets and the Seq-eviction verdict precomputed at compile time.
type tensorGroup struct {
	tensor string
	reads  []accessRef
	writes []accessRef
	// readDims is the union of the read accesses' iteration dims: ancestor
	// loops over other dims leave the staged slices unchanged, so only
	// these dims multiply fill invocations.
	readDims map[string]bool
	// writeDims additionally includes the writers' reduction dims, which
	// force partial-sum round trips.
	writeDims map[string]bool
	// readMask/writeMask are readDims/writeDims as masks over interned dim
	// ids, the form the hot invocation counting consumes.
	readMask, writeMask []bool
	// tensorID indexes the Program's attributed-tensor list (the scratch
	// arena's flat per-tensor rows), or -1 when this group's traffic is
	// never attributed. Assigned by Compile; -1 until then.
	tensorID int
	// density is the tensor's effective density when below 1, else 1:
	// sparse tensors travel and stage in compressed form (Sec 7.7
	// extension). Assigned by stampDensities; 1 until then.
	density float64
	// evicts marks Seq eviction (Sec 5.1.2): under Seq a tile's slices are
	// evicted unless the following tile needs them, so a tensor used by a
	// strict subset of the children loses all reuse at this node.
	evicts bool
}

// buildStructure computes the remaining tiling-independent tables for a
// freshly indexed tree — subtree sizes, subtree dim sets, and per-node
// tensor access groups with their invocation closures — in one bottom-up
// pass over the pre-order ids (descending id order visits children before
// parents).
func buildStructure(t *tree) {
	n := len(t.nodeSet)
	st := t.st
	st.size = make([]int, n)
	st.dims = make([]map[string]bool, n)
	st.dimMask = make([][]bool, n)
	st.groups = make([][]tensorGroup, n)
	idxOf := make([]map[string]int, n) // tensor -> group index, per node
	for id := n - 1; id >= 0; id-- {
		nd := t.nodeSet[id]
		dims := map[string]bool{}
		var groups []tensorGroup
		idx := map[string]int{}
		grp := func(tensor string) *tensorGroup {
			gi, ok := idx[tensor]
			if !ok {
				gi = len(groups)
				idx[tensor] = gi
				groups = append(groups, tensorGroup{tensor: tensor, tensorID: -1, density: 1})
			}
			return &groups[gi]
		}
		size := 1
		if nd.IsLeaf() {
			op := nd.Op
			for _, d := range op.Dims {
				dims[d.Name] = true
			}
			for _, r := range op.Reads {
				g := grp(r.Tensor)
				rd := accessDims(r)
				g.reads = append(g.reads, accessRef{leafID: id, op: op, acc: r,
					dims: rd, iix: internAccess(st, r), mask: dimMaskOf(st, rd),
					maxWords: accessMaxWords(op, r)})
			}
			w := op.Write
			g := grp(w.Tensor)
			wd := accessDims(w)
			g.writes = append(g.writes, accessRef{leafID: id, op: op, acc: w,
				dims: wd, iix: internAccess(st, w), mask: dimMaskOf(st, wd),
				maxWords: accessMaxWords(op, w)})
		} else {
			for _, cid := range st.children[id] {
				size += st.size[cid]
				for d := range st.dims[cid] {
					dims[d] = true
				}
				for _, cg := range st.groups[cid] {
					g := grp(cg.tensor)
					g.reads = append(g.reads, cg.reads...)
					g.writes = append(g.writes, cg.writes...)
				}
			}
		}
		for gi := range groups {
			g := &groups[gi]
			g.readDims = map[string]bool{}
			for _, r := range g.reads {
				for d := range r.dims {
					g.readDims[d] = true
				}
			}
			g.writeDims = map[string]bool{}
			for _, w := range g.writes {
				for d := range w.dims {
					g.writeDims[d] = true
				}
				for _, rd := range w.op.ReductionDims() {
					g.writeDims[rd] = true
				}
			}
			g.readMask = dimMaskOf(st, g.readDims)
			g.writeMask = dimMaskOf(st, g.writeDims)
			if nd.Binding == Seq && len(nd.Children) >= 2 {
				for _, cid := range st.children[id] {
					if _, uses := idxOf[cid][g.tensor]; !uses {
						g.evicts = true
						break
					}
				}
			}
		}
		st.size[id] = size
		st.dims[id] = dims
		st.dimMask[id] = dimMaskOf(st, dims)
		st.groups[id] = groups
		idxOf[id] = idx
	}
}

// relevantInvocations counts how many times node n executes in total: the
// product over strict ancestors of the extents of their loops whose
// dimension is relevant to the subtree hanging toward n. Ancestor loops
// over dimensions no operator under the path-child iterates do not
// re-execute the subtree (the result is reused in place).
func (t *tree) relevantInvocations(n int) float64 {
	return t.invocationsWhere(n, nil)
}

// invocationsWhere is relevantInvocations restricted: when onlyDims is
// non-nil, only ancestor loops over those dimensions count. It is used to
// compute how many distinct output versions a node drains (write-relevant
// dims only) versus how many times it drains (all relevant dims).
func (t *tree) invocationsWhere(n int, onlyDims map[string]bool) float64 {
	inv := 1.0
	child := n
	for a := t.st.parent[n]; a >= 0; a = t.st.parent[a] {
		rel := t.st.dims[child]
		for _, l := range t.nodeSet[a].Loops {
			if !rel[l.Dim] {
				continue
			}
			if onlyDims != nil && !onlyDims[l.Dim] {
				continue
			}
			inv *= float64(l.Extent)
		}
		child = a
	}
	return inv
}

// invocationsMask is invocationsWhere on interned dim masks: the hot form
// the evaluator uses. It walks the same ancestors in the same order and
// multiplies the same extents under the same membership conditions, so the
// float accumulation is bit-identical to the map form. only == nil means
// unrestricted (relevantInvocations).
func (t *tree) invocationsMask(n int, only []bool) float64 {
	inv := 1.0
	child := n
	for a := t.st.parent[n]; a >= 0; a = t.st.parent[a] {
		rel := t.st.dimMask[child]
		ld := t.ldim[a]
		loops := t.nodeSet[a].Loops
		for li, d := range ld {
			if d < 0 || !rel[d] {
				continue
			}
			if only != nil && !only[d] {
				continue
			}
			inv *= float64(loops[li].Extent)
		}
		child = a
	}
	return inv
}

// subtreeDims reports the set of iteration dimensions of all operators in
// the subtree, precomputed at compile time.
func (t *tree) subtreeDims(n int) map[string]bool {
	return t.st.dims[n]
}

// accessDims is the set of iteration dims an access refers to.
func accessDims(acc workload.Access) map[string]bool {
	m := map[string]bool{}
	for _, d := range acc.Dims() {
		m[d] = true
	}
	return m
}
