package dataflows

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// fusedConv is the shared template behind the convolution-chain fusion
// dataflows of Table 5: Fused-Layer (height and width tiled), ISOS (only
// width tiled) and the TileFlow conv dataflow (the two convolutions
// pipelined with the channel dimension tiled as well). The intermediate
// activation tensor is confined at the fused stage, so its halo reads stay
// on chip.
type fusedConv struct {
	name    string
	shape   workload.ConvChainShape
	spec    *arch.Spec
	g       *workload.Graph
	outer   []string // dims tiled at the outer level (subset of h, w, l)
	binding core.Binding
	specs   specCache
}

// FusedLayer fuses the two convolutions with the height and width
// dimensions tiled (Alwani et al., the Fused-Layer dataflow).
func FusedLayer(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return &fusedConv{name: "Fused-Layer", shape: s, spec: spec, g: workload.ConvChain(s),
		outer: []string{"h", "w"}, binding: core.Seq}
}

// ISOS fuses the two convolutions with only the width dimension tiled
// (ISOSceles; designed for sparse CNNs, evaluated dense here as in the
// paper).
func ISOS(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return &fusedConv{name: "ISOS", shape: s, spec: spec, g: workload.ConvChain(s),
		outer: []string{"w"}, binding: core.Seq}
}

// TileFlowConv is the dataflow TileFlow's mapper discovers for convolution
// chains (Sec 7.2): the two convolutions pipelined with the shared channel
// dimension tiled alongside height and width.
func TileFlowConv(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return &fusedConv{name: "TileFlow", shape: s, spec: spec, g: workload.ConvChain(s),
		outer: []string{"h", "w", "l"}, binding: core.Pipe}
}

func (d *fusedConv) Name() string           { return d.name }
func (d *fusedConv) Graph() *workload.Graph { return d.g }

// StructureStable: the chain shape is fixed by the graph and architecture;
// factors fill loop extents only.
func (d *fusedConv) StructureStable() bool { return true }

func (d *fusedConv) hasOuter(dim string) bool {
	for _, o := range d.outer {
		if o == dim {
			return true
		}
	}
	return false
}

func (d *fusedConv) coreDim() string {
	for _, pref := range []string{"h", "w", "l"} {
		if d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedConv) subDim() string {
	cd := d.coreDim()
	for _, pref := range []string{"w", "h", "l"} {
		if pref != cd && d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedConv) Factors() []FactorSpec {
	var fs []FactorSpec
	for _, dim := range d.outer {
		fs = append(fs, FactorSpec{Key: "t_" + dim, Total: d.g.DimSize(dim),
			Doc: "temporal tiles of " + dim + " at the outer level"})
	}
	return fs
}

func (d *fusedConv) DefaultFactors() map[string]int {
	f := map[string]int{}
	for _, dim := range d.outer {
		total := d.g.DimSize(dim)
		f["t_"+dim] = DivisorNear(total, max(1, total/16))
	}
	return f
}

// Build implements Dataflow: Bind of the map's factor vector into a fresh
// tree.
func (d *fusedConv) Build(f map[string]int) (*core.Node, error) {
	return d.Bind(nil, FactorVector(d.specs.get(d), f))
}

// Bind implements Binder. Convolution parallelism comes from the channel
// dimensions mapped spatially at the leaves (spanning sub-cores up to the
// aggregate array); height/width tiling provides on-chip staging only.
// Granularity loops stay on chip: at the L2 mid node on Cloud, at the L1
// stage on Edge (see the attention template for the rationale).
func (d *fusedConv) Bind(root *core.Node, f []int) (*core.Node, error) {
	r := factorReader{f: f, specs: d.specs.get(d)}
	outerProd := &outerProds{}
	var granBuf [8]placed
	granT := granBuf[:0]
	cloud := d.spec.NumLevels() >= 4
	for i, dim := range d.outer {
		v := r.get(i, d.g.DimSize(dim))
		if v > 1 {
			granT = append(granT, placed{dim, v})
		}
		outerProd.mul(dim, v)
	}
	if r.err != nil {
		return nil, r.err
	}
	for di, dim := range outerProd.dims[:outerProd.n] {
		if p := outerProd.prod[di]; d.g.DimSize(dim)%p != 0 {
			return nil, fmt.Errorf("dataflow %s: outer factors %d do not divide %s=%d", d.name, p, dim, d.g.DimSize(dim))
		}
	}

	if root == nil {
		root = d.newTree(cloud)
	}
	// The granularity loops go to the L2 mid node on Cloud, else to the
	// stage.
	stage := root.Children[0]
	stage.Loops = appendPlaced(stage.Loops[:0], granT, nil)
	if cloud {
		stage = stage.Children[0] // below mid
		stage.Loops = stage.Loops[:0]
	}
	aggX, aggY := d.spec.AggregateMesh()
	budget := aggX * aggY
	if d.binding.Spatial() {
		// Concurrent stages partition the aggregate array; each claims
		// its channel extents, which by construction fit side by side
		// (the array edges bound each factor).
		budget = aggX * aggY / len(d.g.Ops)
	}
	var remBuf [8]int
	for i, op := range d.g.Ops {
		rem, err := remaining(remBuf[:0], op, outerProd)
		if err != nil {
			return nil, fmt.Errorf("dataflow %s, op %s: %w", d.name, op.Name, err)
		}
		leaf := stage.Children[i]
		leaf.Loops = AppendLeafLoops(leaf.Loops[:0], op, d.spec, rem, convLeafSpatial(op), budget, aggX, aggY, nil)
	}
	return root, nil
}

// newTree builds the chain's node tree with empty loop nests, for Bind to
// fill.
func (d *fusedConv) newTree(cloud bool) *core.Node {
	kids := make([]*core.Node, len(d.g.Ops))
	for i, op := range d.g.Ops {
		kids[i] = newLeaf(op)
	}
	body := core.Tile("stage", 1, d.binding, make([]core.Loop, 0, len(d.outer)), kids...)
	if cloud {
		body = core.Tile("mid", 2, core.Seq, make([]core.Loop, 0, len(d.outer)), body)
	}
	return core.Tile(d.name, d.spec.DRAMLevel(), core.Seq, nil, body)
}
