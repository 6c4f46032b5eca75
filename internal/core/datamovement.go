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

// internAccessInto interns an access's index expression against the
// structure's dim universe, carving its rows from caller-owned flat
// buffers, which must have room for the access. It returns the interned
// access and the buffers' unused remainders.
func internAccessInto(st *structure, acc workload.Access, rows [][]iterm, terms []iterm) ([][]iterm, [][]iterm, []iterm) {
	iix := rows[:len(acc.Index):len(acc.Index)]
	for i, ix := range acc.Index {
		row := terms[:len(ix.Terms):len(ix.Terms)]
		terms = terms[len(ix.Terms):]
		for j, term := range ix.Terms {
			row[j] = iterm{dim: st.internDim(term.Dim), coef: int64(term.Coef)}
		}
		iix[i] = row
	}
	return iix, rows[len(acc.Index):], terms
}

// numTerms counts the affine terms of an access's index expression.
func numTerms(acc workload.Access) int {
	n := 0
	for _, ix := range acc.Index {
		n += len(ix.Terms)
	}
	return n
}

// sliceExtentsIntoI computes the per-tensor-dimension slice extents of an
// interned access at node n (along the path to leaf), per Sec 5.1.1: for
// each dimension the extent e−b stays constant over time steps and equals
// 1 + Σ coef·(stepCov(dim)−1) over the affine terms of the index expression.
// The result is written into dst, which must have len(iix) capacity.
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

// sliceVolumeI is the product of the slice extents: the size in words of
// the data slice one time step of node n touches for this access.
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

// stridesIntoI computes, for each temporal loop of n (outer..inner), the
// number of elements of its dimension that one advance of that loop shifts
// the slice window by: the step coverage of the dimension times the extents
// of any inner temporal loops over the same dimension at this node.
// tldims[k] is the interned dim of tloops[k]; results are appended into dst.
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

// perExecDMI implements the single-tile data-movement formula of Sec 5.1.1:
// the total volume moved across the node's upper boundary during one
// complete execution of node n for the given interned access. It equals the
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
// steady-state calls allocate nothing.
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

// accessRef is one (leaf, access) occurrence of a tensor in a subtree. The
// leaf is identified by its pre-order id so the reference stays valid
// across tiling re-binds. iix and mask are the interned forms of acc.Index
// and of the access's iteration dims, shared read-only by every node's
// group that folds this reference in.
type accessRef struct {
	leafID int
	op     *workload.Operator
	acc    workload.Access
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
// masks and the Seq-eviction verdict precomputed at compile time.
type tensorGroup struct {
	tensor string
	reads  []accessRef
	writes []accessRef
	// readMask is the union of the read accesses' iteration dims, as a
	// mask over interned dim ids: ancestor loops over other dims leave the
	// staged slices unchanged, so only these dims multiply fill
	// invocations.
	readMask []bool
	// writeMask additionally includes the writers' reduction dims, which
	// force partial-sum round trips.
	writeMask []bool
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

// findGroup is the index of tensor's group in groups, or -1: a linear scan
// of a node's few groups.
func findGroup(groups []tensorGroup, tensor string) int {
	for gi := range groups {
		if groups[gi].tensor == tensor {
			return gi
		}
	}
	return -1
}

// buildStructure computes the remaining tiling-independent tables for a
// freshly indexed tree — subtree sizes, subtree dim masks, and per-node
// tensor access groups with their invocation masks — in one bottom-up
// pass over the pre-order ids (descending id order visits children before
// parents), then fills the group masks. Masks and interned accesses are
// carved from flat buffers, each node's groups and access references from
// one exact-size slice apiece, and tensors are matched by a linear scan of
// a node's few groups: a compile builds no maps.
func buildStructure(t *tree) {
	n := len(t.nodeSet)
	st := t.st
	nd := st.numDims
	var accesses, rows, terms int
	for _, node := range t.nodeSet {
		if node.IsLeaf() {
			accesses += len(node.Op.Reads) + 1
			for _, acc := range node.Op.Reads {
				rows += len(acc.Index)
				terms += numTerms(acc)
			}
			rows += len(node.Op.Write.Index)
			terms += numTerms(node.Op.Write)
		}
	}
	rowBuf, termBuf := make([][]iterm, rows), make([]iterm, terms)
	// One mask per node and one per leaf access.
	masks := make([]bool, (n+accesses)*nd)
	carve := func() []bool {
		m := masks[:nd:nd]
		masks = masks[nd:]
		return m
	}
	st.size = make([]int, n)
	st.dimMask = make([][]bool, n)
	st.groups = make([][]tensorGroup, n)
	numGroups := 0
	for id := n - 1; id >= 0; id-- {
		node := t.nodeSet[id]
		mask := carve()
		var groups []tensorGroup
		size := 1
		if node.IsLeaf() {
			op := node.Op
			for _, d := range op.Dims {
				mask[st.internDim(d.Name)] = true
			}
			groups = make([]tensorGroup, 0, len(op.Reads)+1)
			refs := make([]accessRef, 0, len(op.Reads)+1)
			add := func(acc workload.Access, write bool) {
				r := accessRef{leafID: id, op: op, acc: acc, mask: carve(), maxWords: accessMaxWords(op, acc)}
				r.iix, rowBuf, termBuf = internAccessInto(st, acc, rowBuf, termBuf)
				for _, terms := range r.iix {
					for _, term := range terms {
						if term.dim >= 0 {
							r.mask[term.dim] = true
						}
					}
				}
				refs = append(refs, r)
				gi := findGroup(groups, acc.Tensor)
				if gi < 0 {
					gi = len(groups)
					groups = append(groups, tensorGroup{tensor: acc.Tensor, tensorID: -1, density: 1})
				}
				dst := &groups[gi].reads
				if write {
					dst = &groups[gi].writes
				}
				if *dst == nil {
					*dst = refs[len(refs)-1 : len(refs) : len(refs)]
				} else {
					// A tensor the operator reads twice: the full
					// one-element slice copies out on append.
					*dst = append(*dst, r)
				}
			}
			for _, acc := range op.Reads {
				add(acc, false)
			}
			add(op.Write, true)
		} else {
			kids := st.children[id]
			maxGroups, numRefs := 0, 0
			for _, cid := range kids {
				size += st.size[cid]
				orMask(mask, st.dimMask[cid])
				maxGroups += len(st.groups[cid])
				for _, cg := range st.groups[cid] {
					numRefs += len(cg.reads) + len(cg.writes)
				}
			}
			// The node's groups in first-use order over its children.
			groups = make([]tensorGroup, 0, maxGroups)
			for _, cid := range kids {
				for _, cg := range st.groups[cid] {
					if findGroup(groups, cg.tensor) < 0 {
						groups = append(groups, tensorGroup{tensor: cg.tensor, tensorID: -1, density: 1})
					}
				}
			}
			// Each group's reads (then writes) concatenate its children's
			// in child order, as contiguous runs of one exact-size slice.
			refs := make([]accessRef, 0, numRefs)
			seqEvicts := node.Binding == Seq && len(kids) >= 2
			for gi := range groups {
				g := &groups[gi]
				start := len(refs)
				for _, cid := range kids {
					if ci := findGroup(st.groups[cid], g.tensor); ci >= 0 {
						refs = append(refs, st.groups[cid][ci].reads...)
					} else if seqEvicts {
						// Under Seq, a tensor some child does not use is
						// evicted between the children.
						g.evicts = true
					}
				}
				g.reads = runFrom(refs, start)
				start = len(refs)
				for _, cid := range kids {
					if ci := findGroup(st.groups[cid], g.tensor); ci >= 0 {
						refs = append(refs, st.groups[cid][ci].writes...)
					}
				}
				g.writes = runFrom(refs, start)
			}
		}
		st.size[id] = size
		st.dimMask[id] = mask
		st.groups[id] = groups
		numGroups += len(groups)
	}
	masks = make([]bool, 2*numGroups*nd)
	for id := range st.groups {
		for gi := range st.groups[id] {
			g := &st.groups[id][gi]
			g.readMask, g.writeMask = carve(), carve()
			for _, r := range g.reads {
				orMask(g.readMask, r.mask)
			}
			for _, w := range g.writes {
				// The writer's reduction dims are its op dims missing
				// from the write mask, so the two together are the write
				// mask plus the writer leaf's dim mask.
				orMask(g.writeMask, w.mask)
				orMask(g.writeMask, st.dimMask[w.leafID])
			}
		}
	}
}

// runFrom is refs[start:] capped at its length, or nil when empty.
func runFrom(refs []accessRef, start int) []accessRef {
	if len(refs) == start {
		return nil
	}
	return refs[start:len(refs):len(refs)]
}

// orMask sets every dim of src in dst.
func orMask(dst, src []bool) {
	for d, in := range src {
		if in {
			dst[d] = true
		}
	}
}

// invocationsMask counts how many times node n executes in total: the
// product over strict ancestors of the extents of their loops whose
// dimension is relevant to the subtree hanging toward n. Ancestor loops
// over dimensions no operator under the path-child iterates do not
// re-execute the subtree (the result is reused in place). A non-nil only
// restricts the count to loops over the dims it marks: how many distinct
// output versions a node drains (write-relevant dims only) versus how
// many times it drains (only == nil, all relevant dims).
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
