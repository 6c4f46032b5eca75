package dataflows

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// fusedAttention is the shared template behind Uni-pipe, the four FLAT
// granularities, Chimera and the TileFlow dataflow: self-attention with the
// softmax expanded to five operators, fused at the innermost on-chip level,
// with a configurable set of outer-tiled dimensions (the FLAT granularity
// axis), a configurable inter-tile binding among the fused stages, and an
// optional exclusion of L×V from the fusion.
type fusedAttention struct {
	name  string
	shape workload.AttentionShape
	spec  *arch.Spec
	g     *workload.Graph
	outer []string // dims tiled at outer levels, in loop order
	// stageDims are iterated temporally at the fused stage node itself:
	// the stage stages one chunk of them at a time without any outer
	// (DRAM-level) tiling or parallelization. Uni-pipe processes heads
	// this way.
	stageDims []string
	binding   core.Binding
	fuseLV    bool

	// prepOnce/prep lazily cache every factor-independent derivation Bind
	// needs (dim sizes, core/sub splits, factor slots, the fused operator
	// list and its mesh budget), so the mapper's per-candidate Bind does no
	// graph scans or string concatenation. One Dataflow may be shared
	// across goroutines, hence the Once.
	prepOnce sync.Once
	prep     *attnPrep
}

// attnPrep is the factor-independent precomputation behind Bind.
type attnPrep struct {
	specs          []FactorSpec // Factors(), for the slot keys
	cd, sd         string
	cdSize, sdSize int
	cloud          bool
	dims           []workload.Dim // every graph dim with its graph-wide size
	outerSizes     []int          // dim size of outer[i]; outer[i] is slot i
	hasM           bool           // hasOuter("m")
	mSize          int
	// Factor-vector slots of sp_c, sp_s and u_m (-1 when absent).
	spcSlot, spsSlot, umSlot int
	stageSizes               []int // dim size of stageDims[i]
	fusedOps                 []*workload.Operator
	lv                       *workload.Operator
	// leafRed[i] is fusedOps[i]'s is-reduction mask parallel to its Dims,
	// fed to AppendLeafLoops so per-candidate binds skip the recomputation.
	leafRed [][]bool
	budget  int
}

// prepare computes (once) and returns the Build-path cache.
func (d *fusedAttention) prepare() *attnPrep {
	d.prepOnce.Do(func() {
		p := &attnPrep{
			specs:   d.Factors(),
			cd:      d.coreDim(),
			sd:      d.subDim(),
			cloud:   d.cloud(),
			hasM:    d.hasOuter("m"),
			spcSlot: -1,
			spsSlot: -1,
			umSlot:  -1,
			lv:      d.g.Op("LV"),
		}
		for i, f := range p.specs {
			switch f.Key {
			case "sp_c":
				p.spcSlot = i
			case "sp_s":
				p.spsSlot = i
			case "u_m":
				p.umSlot = i
			}
		}
		p.dims = d.g.AllDims()
		p.cdSize, p.sdSize = p.sizeOf(p.cd), p.sizeOf(p.sd)
		p.mSize = p.sizeOf("m")
		for _, dim := range d.outer {
			p.outerSizes = append(p.outerSizes, p.sizeOf(dim))
		}
		for _, dim := range d.stageDims {
			p.stageSizes = append(p.stageSizes, p.sizeOf(dim))
		}
		fused := []string{"QK", "RowMax", "Sub", "Exp", "RowSum", "Div"}
		if d.fuseLV {
			fused = append(fused, "LV")
		}
		for _, name := range fused {
			op := d.g.Op(name)
			red := make([]bool, len(op.Dims))
			for i, dim := range op.Dims {
				red[i] = op.IsReduction(dim.Name)
			}
			p.fusedOps = append(p.fusedOps, op)
			p.leafRed = append(p.leafRed, red)
		}
		p.budget = macLeafBudget(d.spec, d.binding, p.fusedOps)
		d.prep = p
	})
	return d.prep
}

// sizeOf is the graph-wide size of dim (0 for a dim the graph lacks), by a
// linear scan of the handful of dims rather than a map lookup.
func (p *attnPrep) sizeOf(dim string) int {
	for _, d := range p.dims {
		if d.Name == dim {
			return d.Size
		}
	}
	return 0
}

// Attention dataflow constructors (Table 5). The granularity ladder follows
// FLAT: MGran tiles nothing (the whole intermediate is staged), BGran tiles
// batch, HGran tiles batch and heads, RGran tiles batch, heads and rows.
// Chimera tiles every dimension but keeps L×V out of the fusion; the
// TileFlow dataflow pipelines all three stages with all loops tiled
// (Sec 7.2: "pipeline all the three computation stages ... with all the
// loops tiled").

// UniPipe pipelines Q×K and softmax without tiling heads or rows: batch and
// heads advance temporally at the fused stage, so there is no outer-level
// parallelism (the low-utilization dataflow of Fig 11).
func UniPipe(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "Uni-pipe", shape: s, spec: spec, g: workload.Attention(s),
		outer: nil, stageDims: []string{"b", "h"}, binding: core.Pipe, fuseLV: false}
}

// FLATMGran fuses all three stages with no outer tiling.
func FLATMGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-MGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: nil, binding: core.Seq, fuseLV: true}
}

// FLATBGran fuses all three stages and tiles the batch dimension.
func FLATBGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-BGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b"}, binding: core.Seq, fuseLV: true}
}

// FLATHGran fuses all three stages and tiles batch and heads (Fig 2a).
func FLATHGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-HGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h"}, binding: core.Seq, fuseLV: true}
}

// FLATRGran fuses all three stages and tiles batch, heads and rows.
func FLATRGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-RGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m"}, binding: core.Seq, fuseLV: true}
}

// Chimera fuses Q×K with softmax and tiles every dimension.
func Chimera(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "Chimera", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m", "l"}, binding: core.Seq, fuseLV: false}
}

// TileFlowAttention is the dataflow the TileFlow mapper discovers (Sec 7.2):
// all three stages pipelined, all loops tiled.
func TileFlowAttention(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "TileFlow", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m", "n", "l"}, binding: core.Pipe, fuseLV: true}
}

// CustomAttention builds a fused attention dataflow with an explicit
// granularity (outer-tiled dims), inter-tile binding and fusion scope, for
// ablation studies over the 3D design space's binding axis.
func CustomAttention(name string, s workload.AttentionShape, spec *arch.Spec, outer []string, binding core.Binding, fuseLV bool) Dataflow {
	return &fusedAttention{name: name, shape: s, spec: spec, g: workload.Attention(s),
		outer: outer, binding: binding, fuseLV: fuseLV}
}

// placed is a (dimension, extent) pair destined for a node's loop list.
type placed struct {
	dim string
	ext int
}

func (d *fusedAttention) Name() string           { return d.name }
func (d *fusedAttention) Graph() *workload.Graph { return d.g }

// StructureStable: the tree shape depends only on the template's fusion
// config and the architecture (cloud vs edge), never on the factors —
// factors fill loop extents only.
func (d *fusedAttention) StructureStable() bool { return true }

func (d *fusedAttention) hasOuter(dim string) bool {
	for _, o := range d.outer {
		if o == dim {
			return true
		}
	}
	return false
}

// coreDim picks the dimension split spatially across cores; subDim the one
// split across sub-cores (Cloud only).
func (d *fusedAttention) coreDim() string {
	for _, pref := range []string{"h", "b", "m"} {
		if d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedAttention) subDim() string {
	cd := d.coreDim()
	for _, pref := range []string{"m", "h", "l", "b"} {
		if pref != cd && d.hasOuter(pref) && d.dimSize(pref) > 1 {
			return pref
		}
	}
	// No second dimension to split: reuse the core dimension across
	// sub-cores too (FLAT-HGran spreads heads over both levels).
	return cd
}

func (d *fusedAttention) dimSize(dim string) int { return d.g.DimSize(dim) }

func (d *fusedAttention) cloud() bool { return d.spec.NumLevels() >= 4 }

// Factors implements Dataflow.
func (d *fusedAttention) Factors() []FactorSpec {
	var fs []FactorSpec
	for _, dim := range d.outer {
		fs = append(fs, FactorSpec{Key: "t_" + dim, Total: d.dimSize(dim),
			Doc: "temporal tiles of " + dim + " at the outer level"})
	}
	if cd := d.coreDim(); cd != "" {
		fs = append(fs, FactorSpec{Key: "sp_c", Total: d.dimSize(cd),
			Doc: "spatial split of " + cd + " across cores"})
	}
	if d.cloud() {
		if sd := d.subDim(); sd != "" {
			fs = append(fs, FactorSpec{Key: "sp_s", Total: d.dimSize(sd),
				Doc: "spatial split of " + sd + " across sub-cores"})
		}
		if d.hasOuter("m") {
			fs = append(fs, FactorSpec{Key: "u_m", Total: d.dimSize("m"),
				Doc: "temporal tiles of m at the L2 node"})
		}
	}
	return fs
}

// DefaultFactors implements Dataflow with a plausible untuned assignment:
// heads across cores, rows across sub-cores, modest row chunks.
func (d *fusedAttention) DefaultFactors() map[string]int {
	f := map[string]int{}
	cores := d.spec.Levels[d.spec.DRAMLevel()].Fanout
	if cd := d.coreDim(); cd != "" {
		f["sp_c"] = DivisorAtMost(d.dimSize(cd), cores)
	}
	if d.cloud() {
		if sd := d.subDim(); sd != "" {
			rem := d.dimSize(sd)
			if sd == d.coreDim() {
				rem /= max(1, f["sp_c"])
			}
			f["sp_s"] = DivisorAtMost(rem, d.spec.Levels[2].Fanout)
		}
	}
	// Batch and heads are fully consumed at the outer level: that is what
	// "tiling batch/multi_heads" means in the FLAT granularity ladder.
	for _, dim := range []string{"b", "h"} {
		if !d.hasOuter(dim) {
			continue
		}
		spent := 1
		if d.coreDim() == dim {
			spent *= max(1, f["sp_c"])
		}
		if d.subDim() == dim {
			spent *= max(1, f["sp_s"])
		}
		f["t_"+dim] = max(1, d.dimSize(dim)/spent)
	}
	if d.hasOuter("m") {
		// Stage blocks of ~64 rows.
		total := d.dimSize("m")
		spent := 1
		if d.subDim() == "m" {
			spent = max(1, f["sp_s"])
		} else if d.coreDim() == "m" {
			spent = max(1, f["sp_c"])
		}
		rem := total / spent
		f["t_m"] = DivisorNear(rem, max(1, rem/64))
	}
	if d.hasOuter("l") {
		f["t_l"] = DivisorNear(d.dimSize("l"), max(1, d.dimSize("l")/256))
	}
	return f
}

// Build implements Dataflow: Bind of the map's factor vector into a fresh
// tree.
func (d *fusedAttention) Build(f map[string]int) (*core.Node, error) {
	return d.Bind(nil, FactorVector(d.prepare().specs, f))
}

// Bind implements Binder, assembling the tree:
//
//	root@DRAM {Sp(coreDim)}                       — spatial split only
//	  [Cloud: mid@L2 {T(granularity loops)}]      — L2 staging granularity
//	    stage@L1 {Sp(subDim), T(granularity)}     — L1 staging granularity
//	      the fused QK/softmax[/LV] leaves        — (binding)
//	  [unfused L×V subtree as a Seq sibling]
//
// The granularity loops (the FLAT b/h/m ladder plus Chimera/TileFlow's l/n
// tiling) live at the on-chip staging nodes, never at the DRAM root: tiling
// a reduction at the root would bounce partial sums off DRAM, and tiling
// rows there would defeat the staging the dataflow exists to provide. On
// Edge they all sit at the L1 stage; on Cloud they sit at the L2 mid node
// with u_m refining the L1 staging.
func (d *fusedAttention) Bind(root *core.Node, f []int) (*core.Node, error) {
	pp := d.prepare()
	r := factorReader{f: f, specs: pp.specs}

	// Per-dim products of all outer factors.
	outerProd := &outerProds{}
	mul := outerProd.mul
	var granBuf, stageBuf [8]placed
	granT, stageT := granBuf[:0], stageBuf[:0]

	cd, sd := pp.cd, pp.sd
	spC, spS := 1, 1
	if cd != "" {
		spC = r.get(pp.spcSlot, pp.cdSize)
		mul(cd, spC)
	}
	if pp.cloud && sd != "" {
		spS = r.get(pp.spsSlot, pp.sdSize)
		mul(sd, spS)
	}
	for i, dim := range d.outer {
		v := r.get(i, pp.outerSizes[i])
		if v > 1 {
			granT = append(granT, placed{dim, v})
		}
		mul(dim, v)
	}
	if pp.cloud && pp.hasM {
		v := r.get(pp.umSlot, pp.mSize)
		if v > 1 {
			stageT = append(stageT, placed{"m", v})
		}
		mul("m", v)
	}
	if r.err != nil {
		return nil, r.err
	}
	// Divisibility of the combined products.
	for di, dim := range outerProd.dims[:outerProd.n] {
		if p, sz := outerProd.prod[di], pp.sizeOf(dim); sz%p != 0 {
			return nil, fmt.Errorf("dataflow %s: outer factors %d do not divide %s=%d", d.name, p, dim, sz)
		}
	}

	// Stage-consumed dims (Uni-pipe's untiled heads) advance temporally
	// at the innermost staging node, chunk by chunk, in full.
	for i, dim := range d.stageDims {
		sz := pp.stageSizes[i]
		o := outerProd.of(dim)
		if o == 0 {
			o = 1
		}
		if sz%o != 0 {
			return nil, fmt.Errorf("dataflow %s: stage dim %s: outer %d does not divide %d", d.name, dim, o, sz)
		}
		if e := sz / o; e > 1 {
			stageT = append(stageT, placed{dim, e})
			mul(dim, e)
		}
	}

	if root == nil {
		root = d.newTree(pp)
	}
	root.Loops = root.Loops[:0]
	if spC > 1 {
		root.Loops = append(root.Loops, core.S(cd, spC))
	}
	// On Cloud the granularity loops sit at the L2 mid node; on Edge there
	// is no L2 node and they fold into the stage node itself.
	stage := root.Children[0]
	var stageGran []placed
	if pp.cloud {
		mid := stage
		mid.Loops = appendPlaced(mid.Loops[:0], granT, nil)
		stage = mid.Children[0]
	} else {
		stageGran = granT
	}
	stage.Loops = stage.Loops[:0]
	if spS > 1 {
		stage.Loops = append(stage.Loops, core.S(sd, spS))
	}
	stage.Loops = appendPlaced(appendPlaced(stage.Loops, stageGran, nil), stageT, nil)

	for oi, op := range pp.fusedOps {
		if err := d.bindLeaf(stage.Children[oi], op, outerProd, pp.budget, pp.leafRed[oi]); err != nil {
			return nil, err
		}
	}

	// The unfused L×V subtree (Uni-pipe, Chimera): the softmax output L
	// then travels through DRAM. L×V shares the outer factors over its own
	// dims (b, h, m, l; n is untiled outside), and its staging loops mirror
	// the fused side's over those dims so both root children tile their
	// shared dims identically.
	if !d.fuseLV {
		op := pp.lv
		lvStage := root.Children[1]
		if pp.cloud {
			lvMid := lvStage
			lvMid.Loops = appendPlaced(lvMid.Loops[:0], granT, op)
			lvStage = lvMid.Children[0]
		}
		lvStage.Loops = lvStage.Loops[:0]
		if spS > 1 && op.HasDim(sd) {
			lvStage.Loops = append(lvStage.Loops, core.S(sd, spS))
		}
		lvStage.Loops = appendPlaced(appendPlaced(lvStage.Loops, stageGran, op), stageT, op)
		lvOuter := &outerProds{}
		for _, dim := range op.Dims {
			if v := outerProd.of(dim.Name); v > 1 {
				lvOuter.mul(dim.Name, v)
			}
		}
		if err := d.bindLeaf(lvStage.Children[0], op, lvOuter, 0, nil); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// newTree builds the template's node tree with empty loop nests sized for
// every assignment, for Bind to fill.
func (d *fusedAttention) newTree(pp *attnPrep) *core.Node {
	stageCap := 2 + len(d.outer) + len(d.stageDims)
	kids := make([]*core.Node, len(pp.fusedOps))
	for i, op := range pp.fusedOps {
		kids[i] = newLeaf(op)
	}
	body := core.Tile("stage", 1, d.binding, make([]core.Loop, 0, stageCap), kids...)
	if pp.cloud {
		body = core.Tile("mid", 2, core.Seq, make([]core.Loop, 0, len(d.outer)), body)
	}
	children := []*core.Node{body}
	if !d.fuseLV {
		lv := core.Tile("lv-stage", 1, core.Seq, make([]core.Loop, 0, stageCap), newLeaf(pp.lv))
		if pp.cloud {
			lv = core.Tile("lv-mid", 2, core.Seq, make([]core.Loop, 0, len(d.outer)), lv)
		}
		children = append(children, lv)
	}
	root := core.Tile("root", d.spec.DRAMLevel(), core.Seq, make([]core.Loop, 0, 1), children...)
	root.Name = d.name
	return root
}

// appendPlaced appends a temporal loop per placed entry, keeping only the
// dims op iterates when op is non-nil (factor-1 entries never reach here).
func appendPlaced(dst []core.Loop, ps []placed, op *workload.Operator) []core.Loop {
	for _, p := range ps {
		if op == nil || op.HasDim(p.dim) {
			dst = append(dst, core.T(p.dim, p.ext))
		}
	}
	return dst
}

// attentionLeafSpatial gives the canonical spatial preferences per
// attention stage: Q×K maps (m,l) to the array, L×V maps (m,n), and the
// softmax operators map l onto the vector lanes. The slices are shared, so
// the per-candidate bind path allocates none.
func attentionLeafSpatial(op *workload.Operator) []string {
	switch op.Name {
	case "QK":
		return spatialQK
	case "LV":
		return spatialLV
	default:
		return spatialSoftmax
	}
}

var (
	spatialQK      = []string{"m", "l"}
	spatialLV      = []string{"m", "n"}
	spatialSoftmax = []string{"l"}
)

// bindLeaf rewrites one operator's leaf loops for the outer factors above
// it, with the canonical spatial dims per stage.
func (d *fusedAttention) bindLeaf(leaf *core.Node, op *workload.Operator, outer *outerProds, budget int, red []bool) error {
	var remBuf [8]int
	rem, err := remaining(remBuf[:0], op, outer)
	if err != nil {
		return fmt.Errorf("dataflow %s, op %s: %w", d.name, op.Name, err)
	}
	leaf.Loops = AppendLeafLoops(leaf.Loops[:0], op, d.spec, rem, attentionLeafSpatial(op), budget, 0, 0, red)
	return nil
}
