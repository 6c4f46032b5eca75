// Package core implements TileFlow's primary contribution: the analysis tree
// built from the tile-centric notation (Sec 4) and the tree-based analysis
// of data movement volume, resource usage, latency and energy (Sec 5).
//
// A fusion dataflow is a tree of tile nodes. Each node is a perfect loop
// nest (a polyhedron of iterations) over its children; leaves carry a single
// operator. Loops are bound spatially (Sp) or temporally (Tp); sibling tiles
// are bound by one of the four inter-tile primitives of Table 1: Seq, Shar,
// Para, Pipe. A node's Level names the memory level (index into
// arch.Spec.Levels) whose buffer stages the node's data slices.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Binding is an inter-tile resource binding primitive (Table 1).
type Binding int

// The four inter-tile primitives. Seq gives each tile all resources in
// turns and evicts slices between tiles; Shar shares the memory across
// tiles executing in turns; Para and Pipe split compute and memory
// spatially, Pipe additionally pipelining dependent tiles.
const (
	Seq Binding = iota
	Shar
	Para
	Pipe
)

// String implements fmt.Stringer.
func (b Binding) String() string {
	switch b {
	case Seq:
		return "Seq"
	case Shar:
		return "Shar"
	case Para:
		return "Para"
	case Pipe:
		return "Pipe"
	}
	return fmt.Sprintf("Binding(%d)", int(b))
}

// Spatial reports whether the binding runs sibling tiles concurrently on
// disjoint hardware (Para, Pipe) rather than time-multiplexed (Seq, Shar).
func (b Binding) Spatial() bool { return b == Para || b == Pipe }

// LoopKind distinguishes the intra-tile primitives Sp and Tp of Table 1.
type LoopKind int

// Loop kinds: temporal loops advance over time steps, spatial loops map to
// parallel hardware units.
const (
	Temporal LoopKind = iota
	Spatial
)

// String implements fmt.Stringer.
func (k LoopKind) String() string {
	if k == Spatial {
		return "Sp"
	}
	return "Tp"
}

// Loop is one tiling loop of a tile node: a dimension name, the trip count
// at this node, and a spatial/temporal binding. Within a node, loops are
// ordered outermost first; spatial loops are treated as subdividing the
// chunk of the innermost temporal position.
type Loop struct {
	Dim    string
	Extent int
	Kind   LoopKind
}

// T builds a temporal loop.
func T(dim string, extent int) Loop { return Loop{Dim: dim, Extent: extent, Kind: Temporal} }

// S builds a spatial loop.
func S(dim string, extent int) Loop { return Loop{Dim: dim, Extent: extent, Kind: Spatial} }

// String renders the loop like "i1:4" or "Sp(i1:4)".
func (l Loop) String() string {
	if l.Kind == Spatial {
		return fmt.Sprintf("Sp(%s:%d)", l.Dim, l.Extent)
	}
	return fmt.Sprintf("%s:%d", l.Dim, l.Extent)
}

// Node is one tile of an analysis tree: the recursive tile definition
// T_n = {loops}(T¹_{n−1}, …) of Sec 4.2. A leaf node carries the operator it
// computes; interior nodes carry the inter-tile binding of their children.
type Node struct {
	// Name labels the tile for diagnostics and notation round-trips
	// (e.g. "T0_1").
	Name string

	// Level indexes arch.Spec.Levels; the node's slices are staged in
	// that level's buffer. Leaves sit at level 0 (registers); the root
	// usually sits at the DRAM level.
	Level int

	// Loops is the node's loop nest, outermost first.
	Loops []Loop

	// Binding combines the children (ignored for leaves). The paper's
	// default when unspecified is Seq.
	Binding Binding

	// Children are the sub-tiles, in execution order for Seq/Shar.
	Children []*Node

	// Op is non-nil exactly for leaves.
	Op *workload.Operator
}

// Leaf builds a leaf tile computing op with the given loops.
func Leaf(name string, op *workload.Operator, loops ...Loop) *Node {
	return &Node{Name: name, Level: 0, Op: op, Loops: loops}
}

// Tile builds an interior tile node.
func Tile(name string, level int, binding Binding, loops []Loop, children ...*Node) *Node {
	return &Node{Name: name, Level: level, Binding: binding, Loops: loops, Children: children}
}

// IsLeaf reports whether the node is a leaf tile.
func (n *Node) IsLeaf() bool { return n.Op != nil }

// TemporalTrips is the product of the node's temporal loop extents: the
// number of time steps one execution of this tile takes at its own level.
func (n *Node) TemporalTrips() int64 {
	t := int64(1)
	for _, l := range n.Loops {
		if l.Kind == Temporal {
			t *= int64(l.Extent)
		}
	}
	return t
}

// SpatialProduct is the product of the node's spatial loop extents: the
// number of parallel hardware partitions the node spreads across.
func (n *Node) SpatialProduct() int {
	s := 1
	for _, l := range n.Loops {
		if l.Kind == Spatial {
			s *= l.Extent
		}
	}
	return s
}

// SpatialExtent is the product of spatial extents over the named dimension
// at this node.
func (n *Node) SpatialExtent(dim string) int {
	s := 1
	for _, l := range n.Loops {
		if l.Kind == Spatial && l.Dim == dim {
			s *= l.Extent
		}
	}
	return s
}

// DimExtent is the product of all loop extents (spatial and temporal) over
// the named dimension at this node.
func (n *Node) DimExtent(dim string) int {
	s := 1
	for _, l := range n.Loops {
		if l.Dim == dim {
			s *= l.Extent
		}
	}
	return s
}

// Walk visits the subtree in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Leaves collects the leaf tiles of the subtree in execution order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// Clone deep-copies the subtree. Operators are shared, not copied.
func (n *Node) Clone() *Node {
	c := *n
	c.Loops = append([]Loop(nil), n.Loops...)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return &c
}

// String renders the subtree as an indented outline.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	loops := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		loops[i] = l.String()
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s%s@L%d {%s} op=%s\n", indent, n.Name, n.Level, strings.Join(loops, ", "), n.Op.Name)
		return
	}
	fmt.Fprintf(b, "%s%s@L%d {%s} %s\n", indent, n.Name, n.Level, strings.Join(loops, ", "), n.Binding)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// tree is the evaluation-time view of an analysis tree. Nodes are numbered
// in pre-order; every topological relation — parent links, children lists,
// subtree intervals, leaf indices — lives in the shared structure tables
// indexed by that numbering, so a tiling re-bind only has to produce a new
// nodeSet slice. The structure is shared between a compiled template tree
// and its rebind views and must never be mutated after buildTree returns.
type tree struct {
	root    *Node
	nodeSet []*Node // pre-order; nodeSet[i] is the node with id i
	st      *structure
	// ldim[i][k] is the interned dim id of nodeSet[i].Loops[k] (-1 when
	// the dim is outside the structure's dim universe). It is the one
	// tiling-dependent table the tree carries: the hot analysis loops
	// compare these int32s instead of hashing dim strings. Rows share the
	// ldimBuf backing, each with room for 2×numDims loops beyond its
	// current nest, so rewriting a row in place allocates nothing.
	ldim    [][]int32
	ldimBuf []int32
	// ext[i][d]/sext[i][d] are the products of node i's loop extents over
	// interned dim d — all loops and spatial loops respectively — the
	// constant-time form of DimExtent/SpatialExtent the coverage walks
	// read. Rows share extBuf.
	ext, sext [][]int64
	extBuf    []int64
}

// structure holds every analysis table that depends only on the tree's
// shape, levels, bindings and operators — never on loop extents — indexed
// by pre-order node id. One structure is computed per Compile and shared,
// read-only, by every tiling re-bind of the same shape. It holds no maps:
// dims are dense ids, dim sets are masks over them, and tensors are
// matched by a linear scan of a node's few groups.
type structure struct {
	// parent is the pre-order id of each node's parent; -1 for the root.
	parent []int
	// children lists each node's child ids in execution order.
	children [][]int
	// size is the subtree node count, making subtree membership an
	// O(1) pre-order interval test.
	size []int
	// leafOf is parallel to the graph's Ops: the pre-order id of each
	// operator's leaf, or -1 when the tree has none.
	leafOf []int
	// dimNames interns every dimension name any operator declares to a
	// dense id in [0, numDims), in first-leaf-declaration order:
	// dimNames[id] is the name of id. The hot analysis loops run on these
	// ids (loop compares, mask tests) instead of string hashing.
	dimNames []string
	numDims  int
	// dimMask is, per node, the set of iteration dimensions of all
	// operators in the subtree, as a mask over dim ids.
	dimMask [][]bool
	// groups lists, per node, the tensors its subtree accesses with all
	// per-tensor access closures precomputed, in first-use order.
	groups [][]tensorGroup
}

// buildTree indexes root in pre-order, checks the structural rules that
// need no architecture, and computes the tiling-independent tables. g
// supplies the operator order leafOf is parallel to.
func buildTree(root *Node, g *workload.Graph) (*tree, error) {
	t := &tree{root: root}
	st := &structure{}
	var leaves []int
	var err error
	var visit func(n *Node, parent int)
	visit = func(n *Node, parent int) {
		id := len(t.nodeSet)
		t.nodeSet = append(t.nodeSet, n)
		st.parent = append(st.parent, parent)
		st.children = append(st.children, nil)
		if n.IsLeaf() {
			if len(n.Children) > 0 {
				err = invalidf("core: leaf %q has children", n.Name)
				return
			}
			for _, l := range leaves {
				if prev := t.nodeSet[l]; prev.Op == n.Op {
					err = invalidf("core: operator %q appears in two leaves (%q, %q)", n.Op.Name, prev.Name, n.Name)
					return
				}
			}
			leaves = append(leaves, id)
			return
		}
		if len(n.Children) == 0 {
			err = invalidf("core: interior node %q has no children and no operator", n.Name)
			return
		}
		for _, c := range n.Children {
			if c.Level > n.Level {
				err = invalidf("core: child %q at level %d above parent %q at level %d", c.Name, c.Level, n.Name, n.Level)
				return
			}
			st.children[id] = append(st.children[id], len(t.nodeSet))
			visit(c, id)
			if err != nil {
				return
			}
		}
	}
	visit(root, -1)
	if err != nil {
		return nil, err
	}
	st.leafOf = make([]int, len(g.Ops))
	for i, op := range g.Ops {
		st.leafOf[i] = -1
		for _, l := range leaves {
			if t.nodeSet[l].Op == op {
				st.leafOf[i] = l
				break
			}
		}
	}
	t.st = st
	internDims(t)
	buildStructure(t)
	t.setLdim()
	return t, nil
}

// internDims assigns every dimension name declared by the tree's operators
// a dense id, in first-leaf-declaration (pre-order) order, so the
// assignment is deterministic. Loop dims outside this universe intern to
// -1; validation rejects them before any analysis loop compares ids.
func internDims(t *tree) {
	st := t.st
	for _, n := range t.nodeSet {
		if !n.IsLeaf() {
			continue
		}
		for _, d := range n.Op.Dims {
			if st.internDim(d.Name) < 0 {
				st.dimNames = append(st.dimNames, d.Name)
				st.numDims++
			}
		}
	}
}

// internDim is the interned id of a dim name, or -1 outside the universe.
// A linear scan of the handful of names: the per-tiling paths compare a
// few short strings instead of hashing one.
func (st *structure) internDim(name string) int32 {
	for id, d := range st.dimNames {
		if d == name {
			return int32(id)
		}
	}
	return -1
}

// setLdim lays out and recomputes the per-loop interned dim ids and the
// per-dim extent products for every node of the tree's current nodeSet.
// The rows alias flat backing buffers that are reused across re-binds,
// so steady-state calls allocate nothing.
func (t *tree) setLdim() {
	nn, nd := len(t.nodeSet), t.st.numDims
	total := 0
	for _, n := range t.nodeSet {
		total += len(n.Loops) + 2*nd
	}
	if cap(t.ldimBuf) < total {
		t.ldimBuf = make([]int32, total)
	}
	buf := t.ldimBuf[:total]
	if cap(t.ldim) < nn {
		t.ldim = make([][]int32, nn)
	}
	t.ldim = t.ldim[:nn]
	if cap(t.extBuf) < 2*nn*nd {
		t.extBuf = make([]int64, 2*nn*nd)
	}
	ebuf := t.extBuf[:2*nn*nd]
	if cap(t.ext) < nn {
		t.ext = make([][]int64, nn)
		t.sext = make([][]int64, nn)
	}
	t.ext, t.sext = t.ext[:nn], t.sext[:nn]
	off := 0
	for i, n := range t.nodeSet {
		c := len(n.Loops) + 2*nd
		t.ldim[i] = buf[off : off : off+c]
		off += c
		t.ext[i] = ebuf[i*nd : (i+1)*nd : (i+1)*nd]
		t.sext[i] = ebuf[(nn+i)*nd : (nn+i+1)*nd : (nn+i+1)*nd]
		t.setRow(i)
	}
}

// setRows recomputes the rows of the nodes marked in dirty, in place: the
// delta path's form of setLdim, valid when every other row still matches
// its node's loops.
func (t *tree) setRows(dirty []bool) {
	for i, d := range dirty {
		if d {
			t.setRow(i)
		}
	}
}

// setRow recomputes node i's ldim, ext and sext rows from its loops. A
// row grows out of its reserved room only for a nest longer than any the
// layout saw, the one case that allocates.
func (t *tree) setRow(i int) {
	n := t.nodeSet[i]
	row := t.ldim[i][:0]
	if cap(row) < len(n.Loops) {
		row = make([]int32, 0, len(n.Loops)+2*t.st.numDims)
	}
	erow, srow := t.ext[i], t.sext[i]
	for d := range erow {
		erow[d], srow[d] = 1, 1
	}
	for _, l := range n.Loops {
		id := t.st.internDim(l.Dim)
		row = append(row, id)
		if id >= 0 {
			erow[id] *= int64(l.Extent)
			if l.Kind == Spatial {
				srow[id] *= int64(l.Extent)
			}
		}
	}
	t.ldim[i] = row
}

// rebind builds the tree view of newRoot reusing t's compiled structure
// tables. newRoot must match t.root's structure — same shape, levels,
// bindings among siblings, and operators (by identity, or by name for
// canonically equal graphs) — while its loop nests are free to differ.
// Because every topological table is id-indexed and shared, the re-bind
// only fills a new nodeSet slice in one lockstep walk: a handful of
// allocations regardless of tree size.
func (t *tree) rebind(newRoot *Node) (*tree, error) {
	nt := &tree{}
	if err := t.rebindNodes(nt, newRoot); err != nil {
		return nil, err
	}
	nt.setLdim()
	return nt, nil
}

// rebindNodes fills a caller-owned tree view's nodeSet with newRoot's
// nodes, reusing its backing array, after checking them against the
// compiled structure. The view's rows are left to the caller: rebind lays
// them out afresh, the delta path rewrites only the dirty ones. One view
// re-filled per candidate is what keeps the delta path allocation-free.
func (t *tree) rebindNodes(nt *tree, newRoot *Node) error {
	nt.root = newRoot
	nt.st = t.st
	if cap(nt.nodeSet) < len(t.nodeSet) {
		nt.nodeSet = make([]*Node, 0, len(t.nodeSet))
	}
	nt.nodeSet = nt.nodeSet[:0]
	if err := t.rebindWalk(nt, newRoot); err != nil {
		return &structureError{err: err}
	}
	return nil
}

// rebindWalk validates one node against the template node at the same
// pre-order position and appends it to the view's nodeSet.
func (t *tree) rebindWalk(nt *tree, n *Node) error {
	pos := len(nt.nodeSet)
	if pos >= len(t.nodeSet) {
		return invalidf("core: tree shape at %q differs from the compiled structure", n.Name)
	}
	tpl := t.nodeSet[pos]
	if (tpl.Op == nil) != (n.Op == nil) || len(tpl.Children) != len(n.Children) {
		return invalidf("core: tree shape at %q differs from the compiled structure", n.Name)
	}
	if tpl.Level != n.Level {
		return invalidf("core: node %q at level %d, compiled structure has level %d", n.Name, n.Level, tpl.Level)
	}
	if tpl.Op != nil && tpl.Op != n.Op && tpl.Op.Name != n.Op.Name {
		return invalidf("core: leaf %q computes %q, compiled structure has %q", n.Name, n.Op.Name, tpl.Op.Name)
	}
	// Binding only matters between siblings; single-child and leaf
	// bindings are ignored by the analysis.
	if tpl.Op == nil && len(tpl.Children) > 1 && tpl.Binding != n.Binding {
		return invalidf("core: node %q bound %s, compiled structure has %s", n.Name, n.Binding, tpl.Binding)
	}
	nt.nodeSet = append(nt.nodeSet, n)
	for _, c := range n.Children {
		if err := t.rebindWalk(nt, c); err != nil {
			return err
		}
	}
	return nil
}

// StructureSignature renders the tiling-independent structure of a tree —
// shape, node levels, bindings and operator names, but no loop nests — as a
// canonical string. Two trees over canonically equal graphs with equal
// signatures are mutually re-bindable via Program.WithTiling; caches keyed
// by it (the evaluation service's compiled-program cache) share one Program
// across all tilings of a structure.
func StructureSignature(root *Node) string { return string(AppendStructureSignature(nil, root)) }

// AppendStructureSignature appends StructureSignature's rendering of the
// tree under n to b.
func AppendStructureSignature(b []byte, n *Node) []byte {
	b = append(b, "(L"...)
	b = strconv.AppendInt(b, int64(n.Level), 10)
	b = append(b, ' ')
	if n.IsLeaf() {
		b = append(b, n.Op.Name...)
		return append(b, ')')
	}
	b = append(b, n.Binding.String()...)
	for _, c := range n.Children {
		b = append(b, ' ')
		b = AppendStructureSignature(b, c)
	}
	return append(b, ')')
}

// lcaIDs returns the least common ancestor of the given node ids: the first
// ancestor of ids[0] whose pre-order interval contains every id.
func (t *tree) lcaIDs(ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	a := ids[0]
	for {
		all := true
		for _, id := range ids {
			if !t.subtreeContains(a, id) {
				all = false
				break
			}
		}
		if all || t.st.parent[a] < 0 {
			return a
		}
		a = t.st.parent[a]
	}
}

// subtreeContains reports whether node n's subtree contains the node with
// the given pre-order id: an O(1) interval test against the structure
// tables.
func (t *tree) subtreeContains(n, id int) bool {
	return n <= id && id < n+t.st.size[n]
}

// childToward returns n's direct child on the path to leaf (or leaf itself
// when n is the leaf). All arguments and results are pre-order ids.
func (t *tree) childToward(n, leaf int) int {
	child := leaf
	for m := leaf; m >= 0 && m != n; m = t.st.parent[m] {
		child = m
	}
	return child
}

// dimExtentAt is DimExtent on interned dim ids: the product of all loop
// extents of node m whose dim interned to dim. The analysis loops use
// these forms to replace string hashing with int32 compares; each is the
// exact same product, term for term, as its Node method counterpart.
func (t *tree) dimExtentAt(m int, dim int32) int {
	if dim < 0 {
		// Dims outside the universe match no loop.
		return 1
	}
	return int(t.ext[m][dim])
}

// spatialExtentAt is SpatialExtent on interned dim ids.
func (t *tree) spatialExtentAt(m int, dim int32) int {
	if dim < 0 {
		return 1
	}
	return int(t.sext[m][dim])
}

// covBelowID is the chunk of dimension dim covered per iteration step of
// node n along the path toward leaf: the product of extents of dim loops
// at all path nodes strictly below n.
func (t *tree) covBelowID(n, leaf int, dim int32) int {
	cov := 1
	for m := leaf; m >= 0 && m != n; m = t.st.parent[m] {
		cov *= t.dimExtentAt(m, dim)
	}
	return cov
}

// stepCovID is the extent of dimension dim covered by one temporal step of
// node n on the path to leaf: the node's own spatial extents times
// everything below. This is the slice-defining quantity of Sec 5.1.1 — the
// slice extent stays constant across time steps and is determined by the
// spatial loops (and the subtree chunk).
func (t *tree) stepCovID(n, leaf int, dim int32) int {
	return t.spatialExtentAt(n, dim) * t.covBelowID(n, leaf, dim)
}

// covAtID is the full extent of dim covered by node n (all loops at n and
// below, along the path to leaf).
func (t *tree) covAtID(n, leaf int, dim int32) int {
	return t.dimExtentAt(n, dim) * t.covBelowID(n, leaf, dim)
}
