package mapper

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// Encoding is the Fig 7b representation of a point in the ordering/binding
// plane of the 3D design space: one column per operator with a fusion
// target, the memory level where the fusion stages data, and the inter-tile
// binding primitive.
type Encoding struct {
	// Target[i] is the index of the operator that operator i fuses into,
	// or -1 when operator i is mapped at the top level on its own.
	Target []int
	// Mem[i] is the memory level of the fusion (1..DRAM-1); ignored when
	// Target[i] < 0.
	Mem []int
	// Binding[i] is the inter-tile primitive binding operator i to its
	// fusion host's node.
	Binding []core.Binding
}

// Clone deep-copies the encoding.
func (e *Encoding) Clone() *Encoding {
	return &Encoding{
		Target:  append([]int(nil), e.Target...),
		Mem:     append([]int(nil), e.Mem...),
		Binding: append([]core.Binding(nil), e.Binding...),
	}
}

// String renders the encoding as a Fig 7b style table row.
func (e *Encoding) String() string {
	var b strings.Builder
	for i := range e.Target {
		if i > 0 {
			b.WriteString(" ")
		}
		if e.Target[i] < 0 {
			fmt.Fprintf(&b, "op%d:top", i)
		} else {
			fmt.Fprintf(&b, "op%d->op%d@L%d:%s", i, e.Target[i], e.Mem[i], e.Binding[i])
		}
	}
	return b.String()
}

// LayerwiseEncoding maps every operator at the top level (the no-fusion
// point of the ordering plane).
func LayerwiseEncoding(n int) *Encoding {
	e := &Encoding{Target: make([]int, n), Mem: make([]int, n), Binding: make([]core.Binding, n)}
	for i := range e.Target {
		e.Target[i] = -1
		e.Mem[i] = 1
	}
	return e
}

// Repair makes the encoding structurally valid in place: targets must point
// to later operators (keeping the schedule a forest in topological order)
// and fusion levels must fit inside the host's own chain.
func (e *Encoding) Repair(numLevels int) {
	n := len(e.Target)
	maxMem := numLevels - 2 // deepest on-chip level index
	if maxMem < 1 {
		maxMem = 1
	}
	for i := 0; i < n; i++ {
		if e.Target[i] >= 0 && (e.Target[i] <= i || e.Target[i] >= n) {
			e.Target[i] = -1
		}
		if e.Mem[i] < 1 {
			e.Mem[i] = 1
		}
		if e.Mem[i] > maxMem {
			e.Mem[i] = maxMem
		}
	}
	// Clamp fusion levels below the host's own span, walking hosts in
	// reverse topological order so chains settle in one pass. An op whose
	// host has no interior node left to fuse under reverts to top level.
	span := make([]int, n) // top level of each op's chain (0 = leaf only)
	for i := n - 1; i >= 0; i-- {
		if e.Target[i] < 0 {
			span[i] = maxMem
			continue
		}
		host := e.Target[i]
		if span[host] < 1 {
			e.Target[i] = -1
			span[i] = maxMem
			continue
		}
		if e.Mem[i] > span[host] {
			e.Mem[i] = span[host]
		}
		span[i] = e.Mem[i] - 1
	}
}

// GeneratedDataflow wraps an encoding as a dataflows.Dataflow so the MCTS
// tiling search applies unchanged: the tiling plane of the 3D space is the
// per-level, per-dimension factor table of Fig 7c.
type GeneratedDataflow struct {
	Label string
	G     *workload.Graph
	Spec  *arch.Spec
	Enc   *Encoding
	// SpatialDim is split across cores at the root; SubDim across
	// sub-cores at each top chain's innermost node (Cloud).
	SpatialDim string
	SubDim     string
	// LeafSpatial picks leaf spatial dims per op.
	LeafSpatial func(op *workload.Operator) []string

	// prepOnce/prep hold the factor-independent setup Bind reads, made on
	// first use: the repaired encoding's tree skeleton, each node's
	// potential loops as factor-vector slots, and each leaf's ancestor
	// loops, spatial dims and PE budget. The exported fields must not
	// change after the first Factors-dependent call.
	prepOnce sync.Once
	prep     *genPrep
}

// NewGeneratedDataflow builds the wrapper with sensible spatial choices for
// the known workload families.
func NewGeneratedDataflow(label string, g *workload.Graph, spec *arch.Spec, enc *Encoding) *GeneratedDataflow {
	gd := &GeneratedDataflow{Label: label, G: g, Spec: spec, Enc: enc}
	if g.DimSize("h") > 0 && g.DimSize("m") > 0 { // attention
		gd.SpatialDim, gd.SubDim = "h", "m"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			switch {
			case op.Name == "LV":
				return []string{"m", "n"}
			case op.Kind.Vector():
				return []string{"l"}
			default:
				return []string{"m", "l"}
			}
		}
	} else { // convolution chain (any channel-dim naming)
		gd.SpatialDim, gd.SubDim = "h", "w"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			var dims []string
			// Output channels: write dims other than the image plane.
			for _, d := range op.Write.Dims() {
				if d != "h" && d != "w" {
					dims = append(dims, d)
				}
			}
			// Input channels: the largest reduction dim (filter taps are
			// tiny; the channel reduction dominates).
			best, bsz := "", 1
			for _, rd := range op.ReductionDims() {
				if sz := op.DimSize(rd); sz > bsz {
					best, bsz = rd, sz
				}
			}
			if best != "" {
				dims = append(dims, best)
			}
			return dims
		}
	}
	return gd
}

func (d *GeneratedDataflow) Name() string           { return d.Label }
func (d *GeneratedDataflow) Graph() *workload.Graph { return d.G }

// StructureStable: the encoding fixes the tree shape (chains, attach
// points, bindings); the factor assignment fills loop extents only.
func (d *GeneratedDataflow) StructureStable() bool { return true }

// Factors implements Dataflow: one factor per on-chip level per dimension
// ("L<level>_<dim>"), plus the spatial splits. The list is made once, by
// the setup; each call returns a copy.
func (d *GeneratedDataflow) Factors() []dataflows.FactorSpec {
	return append([]dataflows.FactorSpec(nil), d.prepare().specs...)
}

func (d *GeneratedDataflow) factorSpecs() []dataflows.FactorSpec {
	var fs []dataflows.FactorSpec
	maxMem := d.Spec.NumLevels() - 2
	dims := d.G.AllDims()
	for l := maxMem; l >= 1; l-- {
		for _, dim := range dims {
			if dim.Size <= 1 {
				continue
			}
			fs = append(fs, dataflows.FactorSpec{
				Key:   fmt.Sprintf("L%d_%s", l, dim.Name),
				Total: dim.Size,
				Doc:   fmt.Sprintf("temporal tiles of %s at level %d nodes", dim.Name, l),
			})
		}
	}
	if n := d.G.DimSize(d.SpatialDim); n > 1 {
		fs = append(fs, dataflows.FactorSpec{Key: "sp_c", Total: n, Doc: "spatial split across cores"})
	}
	if d.Spec.NumLevels() >= 4 {
		if n := d.G.DimSize(d.SubDim); n > 1 {
			fs = append(fs, dataflows.FactorSpec{Key: "sp_s", Total: n, Doc: "spatial split across sub-cores"})
		}
	}
	return fs
}

// DefaultFactors implements Dataflow: unit tiling everywhere except the
// spatial splits.
func (d *GeneratedDataflow) DefaultFactors() map[string]int {
	f := map[string]int{}
	if n := d.G.DimSize(d.SpatialDim); n > 1 {
		f["sp_c"] = dataflows.DivisorAtMost(n, d.Spec.Levels[d.Spec.DRAMLevel()].Fanout)
	}
	if d.Spec.NumLevels() >= 4 {
		if n := d.G.DimSize(d.SubDim); n > 1 {
			f["sp_s"] = dataflows.DivisorAtMost(n, d.Spec.Levels[2].Fanout)
		}
	}
	return f
}

// Hidden factor slots of the spatial splits. Build reads sp_c and sp_s
// from its map even when Factors omits them (a dimension of size 1, or
// sp_s on a three-level Edge spec), so the bind path carries them beside
// the vector rather than in it.
const (
	slotSpC = -1 - iota
	slotSpS
)

// genLoop is one potential loop of a generated node: the node carries
// Loop{dim, x, kind} when the factor x in slot is above 1 and divides size
// (size 0: no check; the spatial splits are validated up front).
type genLoop struct {
	dim  string
	kind core.LoopKind
	slot int
	size int
}

// genNode describes one node of the skeleton, in pre-order.
type genNode struct {
	loops []genLoop // interior nodes
	leaf  int       // index into genPrep.leaves, or -1
}

// genLeaf is the factor-independent half of one operator's leaf.
type genLeaf struct {
	op *workload.Operator
	// cover[k] lists the potential ancestor loops over op.Dims[k]: their
	// product is the path factor the leaf's remaining extent divides by.
	cover   [][]genLoop
	spatial []string
	red     []bool
	// budget caps the leaf's PE share: MAC leaves running concurrently
	// under a Para/Pipe ancestor share the array.
	budget int
	off    int // offset of the leaf's remaining extents in the bind buffer
}

// genPrep is GeneratedDataflow's one-time setup.
type genPrep struct {
	spec  *arch.Spec
	specs []dataflows.FactorSpec
	// err is the encoding/graph mismatch Build reports before anything
	// else; lateErr a structural error it reports after validating the
	// spatial splits.
	err, lateErr     error
	spcSlot, spsSlot int // -1 when Factors omits the split
	spatialSize      int // G.DimSize(SpatialDim)
	subSize          int // G.DimSize(SubDim)
	skel             *core.Node
	nodes            []genNode // parallel to skel's pre-order
	leaves           []genLeaf // in graph operator order
	remLen           int
}

// genVals is the value source of one bind: the factor vector plus the
// spatial splits.
type genVals struct {
	f        []int
	spC, spS int
}

// extent is the trip count gl contributes under v, or 1 when the loop is
// absent.
func (v *genVals) extent(gl genLoop) int {
	var x int
	switch gl.slot {
	case slotSpC:
		x = v.spC
	case slotSpS:
		x = v.spS
	default:
		x = v.f[gl.slot]
	}
	if x > 1 && (gl.size == 0 || gl.size%x == 0) {
		return x
	}
	return 1
}

// prepare returns the setup, making it on first use. A Dataflow may be
// shared across goroutines, hence the Once.
func (d *GeneratedDataflow) prepare() *genPrep {
	d.prepOnce.Do(func() { d.prep = d.setup() })
	return d.prep
}

// setup converts the encoding into the tree skeleton (Fig 7b) and the
// slot form of the factor table (Fig 7c).
func (d *GeneratedDataflow) setup() *genPrep {
	p := &genPrep{
		spec:        d.Spec,
		specs:       d.factorSpecs(),
		spcSlot:     -1,
		spsSlot:     -1,
		spatialSize: d.G.DimSize(d.SpatialDim),
		subSize:     d.G.DimSize(d.SubDim),
	}
	slot := make(map[string]int, len(p.specs))
	for i, f := range p.specs {
		slot[f.Key] = i
	}
	if i, ok := slot["sp_c"]; ok {
		p.spcSlot = i
	}
	if i, ok := slot["sp_s"]; ok {
		p.spsSlot = i
	}
	enc := d.Enc.Clone()
	enc.Repair(d.Spec.NumLevels())
	n := len(d.G.Ops)
	if n != len(enc.Target) {
		p.err = fmt.Errorf("mapper: encoding for %d ops, graph has %d", len(enc.Target), n)
		return p
	}
	maxMem := d.Spec.NumLevels() - 2
	loopsOf := map[*core.Node][]genLoop{}

	// Each op's chain spans levels [1, top] plus its leaf. Top-level ops
	// span the full on-chip hierarchy; fused ops span below their fusion
	// level. The sub-core spatial split goes on the innermost interior
	// node of top-level chains.
	type chain struct {
		top   int // highest level of the op's own nodes
		nodes map[int]*core.Node
		leaf  *core.Node
	}
	chains := make([]*chain, n)
	for i := n - 1; i >= 0; i-- {
		op := d.G.Ops[i]
		top := maxMem
		if enc.Target[i] >= 0 {
			top = enc.Mem[i] - 1
		}
		c := &chain{top: top, nodes: map[int]*core.Node{}}
		for l := top; l >= 1; l-- {
			var gl []genLoop
			if enc.Target[i] < 0 && l == 1 && op.HasDim(d.SubDim) {
				gl = append(gl, genLoop{dim: d.SubDim, kind: core.Spatial, slot: slotSpS})
			}
			for _, dim := range op.Dims {
				if s, ok := slot[fmt.Sprintf("L%d_%s", l, dim.Name)]; ok {
					gl = append(gl, genLoop{dim: dim.Name, kind: core.Temporal, slot: s, size: dim.Size})
				}
			}
			node := core.Tile(fmt.Sprintf("%s@L%d", op.Name, l), l, core.Seq, nil)
			c.nodes[l] = node
			loopsOf[node] = gl
		}
		for l := c.top; l > 1; l-- {
			c.nodes[l].Children = []*core.Node{c.nodes[l-1]}
		}
		chains[i] = c
	}
	root := core.Tile(d.Label, d.Spec.DRAMLevel(), core.Seq, nil)
	loopsOf[root] = []genLoop{{dim: d.SpatialDim, kind: core.Spatial, slot: slotSpC}}

	attach := func(parent, child *core.Node, binding core.Binding, front bool) {
		if front {
			parent.Children = append([]*core.Node{child}, parent.Children...)
		} else {
			parent.Children = append(parent.Children, child)
		}
		if binding != core.Seq {
			parent.Binding = binding
		}
	}
	// Attach fused chains to their hosts (reverse order keeps producer
	// tiles before their consumers under the same host node).
	for i := n - 1; i >= 0; i-- {
		c := chains[i]
		if enc.Target[i] < 0 {
			continue
		}
		hostNode := chains[enc.Target[i]].nodes[enc.Mem[i]]
		if hostNode == nil {
			p.lateErr = fmt.Errorf("mapper: op %d fused at level %d but host has no node there", i, enc.Mem[i])
			return p
		}
		sub := c.nodes[c.top]
		if sub == nil {
			c.leaf = core.Leaf(d.G.Ops[i].Name, d.G.Ops[i])
			sub = c.leaf
		}
		attach(hostNode, sub, enc.Binding[i], true)
	}
	// Attach top-level chains under the root in topological order.
	for i := 0; i < n; i++ {
		if enc.Target[i] < 0 {
			attach(root, chains[i].nodes[chains[i].top], core.Seq, false)
		}
	}
	// Every chain interior ends in a leaf.
	for i, c := range chains {
		if c.leaf != nil {
			continue
		}
		op := d.G.Ops[i]
		bottom := c.nodes[1]
		if bottom == nil {
			// A top-level chain with no on-chip level to span.
			p.lateErr = fmt.Errorf("mapper: op %s chain has no interior node", op.Name)
			return p
		}
		c.leaf = core.Leaf(op.Name, op)
		bottom.Children = append(bottom.Children, c.leaf)
	}

	// With the shape final, derive each leaf's ancestor loops and budget.
	parent := map[*core.Node]*core.Node{}
	leafIdx := map[*core.Node]int{}
	root.Walk(func(m *core.Node) {
		for _, ch := range m.Children {
			parent[ch] = m
		}
	})
	for i, c := range chains {
		op := d.G.Ops[i]
		leafIdx[c.leaf] = i
		l := genLeaf{op: op, cover: make([][]genLoop, len(op.Dims)), spatial: d.LeafSpatial(op),
			red: make([]bool, len(op.Dims)), budget: d.Spec.MeshX * d.Spec.MeshY, off: p.remLen}
		p.remLen += len(op.Dims)
		for k, dim := range op.Dims {
			l.red[k] = op.IsReduction(dim.Name)
			for a := parent[c.leaf]; a != nil; a = parent[a] {
				for _, gl := range loopsOf[a] {
					if gl.dim == dim.Name {
						l.cover[k] = append(l.cover[k], gl)
					}
				}
			}
		}
		if !op.Kind.Vector() {
			for a := parent[c.leaf]; a != nil; a = parent[a] {
				if a.Binding.Spatial() && len(a.Children) > 1 {
					macs := 0
					for _, leaf := range a.Leaves() {
						if !leaf.Op.Kind.Vector() {
							macs++
						}
					}
					if macs > 1 {
						l.budget = max(1, l.budget/macs)
					}
					break
				}
			}
		}
		p.leaves = append(p.leaves, l)
	}
	root.Walk(func(m *core.Node) {
		if m.IsLeaf() {
			p.nodes = append(p.nodes, genNode{leaf: leafIdx[m]})
		} else {
			p.nodes = append(p.nodes, genNode{loops: loopsOf[m], leaf: -1})
		}
	})
	p.skel = root
	return p
}

// Build implements Dataflow: Bind of the map's factor vector into a fresh
// tree, with the spatial splits read from the map whether or not Factors
// lists them.
func (d *GeneratedDataflow) Build(f map[string]int) (*core.Node, error) {
	p := d.prepare()
	return d.bind(p, nil, dataflows.FactorVector(p.specs, f), max(1, f["sp_c"]), max(1, f["sp_s"]))
}

// Bind implements dataflows.Binder: it binds the factor table onto the
// encoding's tree (Fig 7b) as loops (Fig 7c).
func (d *GeneratedDataflow) Bind(root *core.Node, f []int) (*core.Node, error) {
	p := d.prepare()
	spC, spS := 1, 1
	if p.spcSlot >= 0 {
		spC = max(1, f[p.spcSlot])
	}
	if p.spsSlot >= 0 {
		spS = max(1, f[p.spsSlot])
	}
	return d.bind(p, root, f, spC, spS)
}

func (d *GeneratedDataflow) bind(p *genPrep, root *core.Node, f []int, spC, spS int) (*core.Node, error) {
	if p.err != nil {
		return nil, p.err
	}
	if spC > 1 && p.spatialSize%spC != 0 {
		return nil, &bindError{split: "sp_c", factor: spC, dim: d.SpatialDim}
	}
	if spS > 1 && p.subSize%spS != 0 {
		return nil, &bindError{split: "sp_s", factor: spS, dim: d.SubDim}
	}
	if p.lateErr != nil {
		return nil, p.lateErr
	}
	v := genVals{f: f, spC: spC, spS: spS}
	// Every leaf's remaining extents, validated in operator order before
	// any loop is written.
	var remBuf [64]int
	rem := remBuf[:0]
	if p.remLen > len(remBuf) {
		rem = make([]int, 0, p.remLen)
	}
	for i := range p.leaves {
		l := &p.leaves[i]
		for k, dim := range l.op.Dims {
			cov := 1
			for _, gl := range l.cover[k] {
				cov *= v.extent(gl)
			}
			if dim.Size%cov != 0 {
				return nil, &bindError{op: l.op.Name, dim: dim.Name, factor: cov, size: dim.Size}
			}
			rem = append(rem, dim.Size/cov)
		}
	}
	next := 0
	if root == nil {
		root = p.clone(p.skel, &next)
		next = 0
	}
	p.fill(root, &next, &v, rem)
	return root, nil
}

// bindError is a factor vector bind rejects: a spatial split (split names
// its factor, "sp_c" or "sp_s") or a leaf's path factors that do not divide
// the dim. It formats only in Error, since TileSearch discards the text of
// almost every rejection.
type bindError struct {
	split, op, dim string
	factor, size   int
}

func (e *bindError) Error() string {
	if e.split != "" {
		return fmt.Sprintf("mapper: %s=%d does not divide %s", e.split, e.factor, e.dim)
	}
	return fmt.Sprintf("mapper: op %s dim %s: path factors %d do not divide %d", e.op, e.dim, e.factor, e.size)
}

// clone copies the skeleton with loop nests sized for every assignment.
func (p *genPrep) clone(n *core.Node, next *int) *core.Node {
	gn := &p.nodes[*next]
	*next++
	c := *n
	if gn.leaf >= 0 {
		c.Loops = make([]core.Loop, 0, len(n.Op.Dims)+2)
	} else {
		c.Loops = make([]core.Loop, 0, len(gn.loops))
	}
	if len(n.Children) > 0 {
		c.Children = make([]*core.Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = p.clone(ch, next)
		}
	}
	return &c
}

// fill rewrites the loop nests of the subtree at n in place, n being the
// skeleton node with pre-order id *next.
func (p *genPrep) fill(n *core.Node, next *int, v *genVals, rem []int) {
	gn := &p.nodes[*next]
	*next++
	if gn.leaf >= 0 {
		l := &p.leaves[gn.leaf]
		n.Loops = dataflows.AppendLeafLoops(n.Loops[:0], l.op, p.spec, rem[l.off:l.off+len(l.op.Dims)], l.spatial, l.budget, 0, 0, l.red)
		return
	}
	n.Loops = n.Loops[:0]
	for _, gl := range gn.loops {
		if x := v.extent(gl); x > 1 {
			n.Loops = append(n.Loops, core.Loop{Dim: gl.dim, Extent: x, Kind: gl.kind})
		}
	}
	for _, c := range n.Children {
		p.fill(c, next, v, rem)
	}
}
