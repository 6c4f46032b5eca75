package dataflows

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// layerwise is the no-fusion baseline of Table 5: every operator is mapped
// to the whole accelerator on its own, so every intermediate tensor spills
// to DRAM (its least common ancestor is the DRAM-level root).
type layerwise struct {
	name string
	g    *workload.Graph
	spec *arch.Spec
	// coreDim is split spatially across cores, subDim across sub-cores
	// (Cloud), chunkDim temporally at the per-op top node.
	coreDim, subDim, chunkDim string
	// spatialOf picks each operator's leaf spatial dims.
	spatialOf func(op *workload.Operator) []string
	// aggregate maps leaf spatial dims onto the whole-chip array instead
	// of one sub-core mesh (the convolution channel mapping), with no
	// core/sub-core splits.
	aggregate bool
	specs     specCache
}

// LayerwiseAttention is the Layerwise baseline for self-attention.
func LayerwiseAttention(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &layerwise{
		name: "Layerwise", g: workload.Attention(s), spec: spec,
		coreDim: "h", subDim: "m", chunkDim: "m",
		spatialOf: attentionLeafSpatial,
	}
}

// LayerwiseConv is the Layerwise baseline for convolution chains: each
// convolution maps its channel parallelism onto the aggregate array, one
// operator at a time (so a single conv cannot fill the chip — the
// utilization gap the pipelined fusion dataflow closes).
func LayerwiseConv(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return &layerwise{
		name: "Layerwise", g: workload.ConvChain(s), spec: spec,
		chunkDim: "h", spatialOf: convLeafSpatial, aggregate: true,
	}
}

// convLeafSpatial maps the channel dimensions onto the PE array (output
// channels × input channels), the standard spatial mapping for convolution
// engines; height/width parallelism lives at the core/sub-core splits.
func convLeafSpatial(op *workload.Operator) []string {
	if op.HasDim("l") && !op.IsReduction("l") {
		return spatialConvOut
	}
	return spatialConvIn
}

var (
	spatialConvOut = []string{"l", "c"}
	spatialConvIn  = []string{"e", "l"}
)

func (d *layerwise) Name() string           { return d.name }
func (d *layerwise) Graph() *workload.Graph { return d.g }

// StructureStable: one subtree per operator in graph order, independent of
// the factor assignment.
func (d *layerwise) StructureStable() bool { return true }

func (d *layerwise) Factors() []FactorSpec {
	fs := []FactorSpec{
		{Key: "t", Total: d.g.DimSize(d.chunkDim), Doc: "temporal tiles of " + d.chunkDim + " per operator"},
	}
	if d.coreDim != "" {
		fs = append(fs, FactorSpec{Key: "sp_c", Total: d.g.DimSize(d.coreDim), Doc: "spatial split of " + d.coreDim + " across cores"})
	}
	if d.subDim != "" && d.spec.NumLevels() >= 4 {
		fs = append(fs, FactorSpec{Key: "sp_s", Total: d.g.DimSize(d.subDim), Doc: "spatial split of " + d.subDim + " across sub-cores"})
	}
	return fs
}

func (d *layerwise) DefaultFactors() map[string]int {
	f := map[string]int{}
	if d.coreDim != "" {
		f["sp_c"] = DivisorAtMost(d.g.DimSize(d.coreDim), d.spec.Levels[d.spec.DRAMLevel()].Fanout)
	}
	if d.subDim != "" && d.spec.NumLevels() >= 4 {
		f["sp_s"] = DivisorAtMost(d.g.DimSize(d.subDim), d.spec.Levels[2].Fanout)
	}
	total := d.g.DimSize(d.chunkDim)
	f["t"] = DivisorNear(total, max(1, total/64))
	return f
}

// Build implements Dataflow: Bind of the map's factor vector into a fresh
// tree.
func (d *layerwise) Build(f map[string]int) (*core.Node, error) {
	return d.Bind(nil, FactorVector(d.specs.get(d), f))
}

// Bind implements Binder. The factor slots follow Factors: t, then sp_c
// and sp_s when present.
func (d *layerwise) Bind(root *core.Node, f []int) (*core.Node, error) {
	r := factorReader{f: f, specs: d.specs.get(d)}
	cloud := d.spec.NumLevels() >= 4
	spC, spsSlot := 1, 1
	if d.coreDim != "" {
		spC = r.get(1, d.g.DimSize(d.coreDim))
		spsSlot = 2
	}
	t := r.get(0, d.g.DimSize(d.chunkDim))
	spS := 1
	if d.subDim != "" && cloud {
		spS = r.get(spsSlot, d.g.DimSize(d.subDim))
	}
	if r.err != nil {
		return nil, r.err
	}
	if root == nil {
		root = d.newTree(cloud)
	}
	for i, op := range d.g.Ops {
		if err := d.bindOp(root.Children[i], op, spC, spS, t, cloud); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// newTree builds one subtree per operator with empty loop nests: an outer
// on-chip node carrying the spatial core split and the temporal chunking,
// then (on Cloud) an L1 node with the sub-core split, then the leaf.
func (d *layerwise) newTree(cloud bool) *core.Node {
	kids := make([]*core.Node, len(d.g.Ops))
	for i, op := range d.g.Ops {
		leaf := newLeaf(op)
		if cloud {
			l1 := core.Tile(op.Name+"@L1", 1, core.Seq, make([]core.Loop, 0, 1), leaf)
			kids[i] = core.Tile(op.Name+"@L2", 2, core.Seq, make([]core.Loop, 0, 2), l1)
		} else {
			kids[i] = core.Tile(op.Name+"@L1", 1, core.Seq, make([]core.Loop, 0, 2), leaf)
		}
	}
	return core.Tile(d.name, d.spec.DRAMLevel(), core.Seq, nil, kids...)
}

// bindOp maps one operator onto the whole accelerator, rewriting the loops
// of its subtree (top node, Cloud L1 node, leaf).
func (d *layerwise) bindOp(top *core.Node, op *workload.Operator, spC, spS, t int, cloud bool) error {
	outer := &outerProds{}
	top.Loops = top.Loops[:0]
	if d.coreDim != "" && op.HasDim(d.coreDim) && spC > 1 {
		if op.DimSize(d.coreDim)%spC != 0 {
			return fmt.Errorf("layerwise %s: sp_c=%d does not divide %s", op.Name, spC, d.coreDim)
		}
		top.Loops = append(top.Loops, core.S(d.coreDim, spC))
		outer.mul(d.coreDim, spC)
	}
	if op.HasDim(d.chunkDim) && t > 1 {
		prev := outer.of(d.chunkDim)
		if prev == 0 {
			prev = 1
		}
		if op.DimSize(d.chunkDim)%(prev*t) != 0 {
			return fmt.Errorf("layerwise %s: t=%d does not divide %s", op.Name, t, d.chunkDim)
		}
		top.Loops = append(top.Loops, core.T(d.chunkDim, t))
		outer.mul(d.chunkDim, t)
	}
	leafParent := top
	if cloud {
		leafParent = top.Children[0]
		leafParent.Loops = leafParent.Loops[:0]
		if d.subDim != "" && op.HasDim(d.subDim) && spS > 1 {
			prev := outer.of(d.subDim)
			if prev == 0 {
				prev = 1
			}
			if op.DimSize(d.subDim)%(prev*spS) != 0 {
				return fmt.Errorf("layerwise %s: sp_s=%d does not divide %s", op.Name, spS, d.subDim)
			}
			leafParent.Loops = append(leafParent.Loops, core.S(d.subDim, spS))
			outer.mul(d.subDim, spS)
		}
	}
	var remBuf [8]int
	rem, err := remaining(remBuf[:0], op, outer)
	if err != nil {
		return fmt.Errorf("layerwise %s: %w", op.Name, err)
	}
	leaf := leafParent.Children[0]
	if d.aggregate {
		aggX, aggY := d.spec.AggregateMesh()
		leaf.Loops = AppendLeafLoops(leaf.Loops[:0], op, d.spec, rem, d.spatialOf(op), aggX*aggY, aggX, aggY, nil)
	} else {
		leaf.Loops = AppendLeafLoops(leaf.Loops[:0], op, d.spec, rem, d.spatialOf(op), 0, 0, 0, nil)
	}
	return nil
}
