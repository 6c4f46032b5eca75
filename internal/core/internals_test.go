package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

func archEdgeForTest() *arch.Spec { return arch.Edge() }

// chain3 builds a three-op chain X→Mid1→Mid2→Out over shared dims for
// tree-internal tests.
func chain3() *workload.Graph {
	mk := func(name, in, out string) *workload.Operator {
		return &workload.Operator{
			Name: name, Kind: workload.KindMAC,
			Dims: []workload.Dim{{Name: "i", Size: 32}, {Name: "j", Size: 32}},
			Reads: []workload.Access{
				{Tensor: in, Index: []workload.Index{workload.I("i"), workload.I("j")}},
			},
			Write: workload.Access{Tensor: out, Index: []workload.Index{workload.I("i"), workload.I("j")}},
		}
	}
	return workload.MustGraph("chain3", 2,
		mk("F", "X", "Mid1"), mk("G", "Mid1", "Mid2"), mk("H", "Mid2", "Out"))
}

func TestConfinementLCA(t *testing.T) {
	g := chain3()
	lf := Leaf("lf", g.Op("F"), T("i", 8), T("j", 32))
	lg := Leaf("lg", g.Op("G"), T("i", 8), T("j", 32))
	lh := Leaf("lh", g.Op("H"), T("i", 8), T("j", 32))
	inner := Tile("inner", 1, Shar, []Loop{T("i", 2)}, lf, lg)
	outer := Tile("outer", 1, Shar, []Loop{T("i", 2)}, inner, lh)
	root := Tile("root", 2, Seq, nil, outer)
	tr, err := buildTree(root, g)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-order ids: root 0, outer 1, inner 2, lf 3, lg 4, lh 5.
	const outerID, innerID = 1, 2
	conf := map[string]int{}
	for _, c := range tr.confinements(g) {
		conf[c.tensor] = c.lca
	}
	if conf["Mid1"] != innerID {
		t.Errorf("Mid1 confined at %v, want inner", tr.nodeSet[conf["Mid1"]].Name)
	}
	if conf["Mid2"] != outerID {
		t.Errorf("Mid2 confined at %v, want outer", tr.nodeSet[conf["Mid2"]].Name)
	}
	if _, ok := conf["X"]; ok {
		t.Error("graph input must not be confined")
	}
	if _, ok := conf["Out"]; ok {
		t.Error("graph output must not be confined")
	}
}

func TestChildToward(t *testing.T) {
	g := chain3()
	leaf := Leaf("l", g.Op("F"), T("i", 32), T("j", 32))
	mid := Tile("m", 1, Seq, nil, leaf)
	root := Tile("r", 2, Seq, nil, mid)
	// The other two ops still need leaves for a valid tree build; use a
	// raw buildTree on a subtree instead.
	tr, err := buildTree(root, g)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-order ids: root 0, mid 1, leaf 2.
	const rootID, midID, leafID = 0, 1, 2
	if got := tr.childToward(rootID, leafID); got != midID {
		t.Errorf("childToward(root) = %s", tr.nodeSet[got].Name)
	}
	if got := tr.childToward(midID, leafID); got != leafID {
		t.Errorf("childToward(mid) = %s", tr.nodeSet[got].Name)
	}
	if got := tr.childToward(leafID, leafID); got != leafID {
		t.Errorf("childToward(leaf) = %s", tr.nodeSet[got].Name)
	}
}

func TestInvocationsRelevance(t *testing.T) {
	g := chain3()
	lf := Leaf("lf", g.Op("F"), T("i", 8), T("j", 8))
	lg := Leaf("lg", g.Op("G"), T("i", 8), T("j", 8))
	lh := Leaf("lh", g.Op("H"), T("i", 8), T("j", 8))
	stage := Tile("stage", 1, Shar, []Loop{T("i", 2), T("j", 4)}, lf, lg, lh)
	root := Tile("root", 2, Seq, []Loop{T("i", 2)}, stage)
	tr, err := buildTree(root, g)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-order ids: root 0, stage 1, lf 2.
	const lfID = 2
	// Each leaf re-executes for every relevant ancestor loop iteration:
	// stage (2·4) × root (2) = 16.
	if inv := tr.invocationsMask(lfID, nil); inv != 16 {
		t.Errorf("invocations = %v, want 16", inv)
	}
	// Restricted to dim i only: 2 × 2 = 4.
	onlyI := make([]bool, tr.st.numDims)
	onlyI[tr.st.internDim("i")] = true
	if inv := tr.invocationsMask(lfID, onlyI); inv != 4 {
		t.Errorf("i-invocations = %v, want 4", inv)
	}
	if inv := tr.invocationsMask(lfID, make([]bool, tr.st.numDims)); inv != 1 {
		t.Errorf("empty-set invocations = %v, want 1", inv)
	}
}

func TestStrides(t *testing.T) {
	g := workload.BatchedConv1D()
	op := g.Ops[0]
	// Two temporal loops over the same dim at one node: the outer one
	// strides by the inner extent times the step coverage.
	leaf := Leaf("leaf", op, T("j", 2), T("j", 3), T("i", 12), T("k", 3), S("j", 2))
	tr, err := buildTree(leaf, g)
	if err != nil {
		t.Fatal(err)
	}
	// The first four loops are the temporal ones.
	s := tr.stridesIntoI(nil, 0, 0, leaf.Loops[:4], tr.ldim[0][:4])
	// stepCov(j) = spatial 2; inner j loop strides 2, outer j strides 3·2.
	if s[1] != 2 || s[0] != 6 {
		t.Errorf("j strides = outer %d inner %d, want 6/2", s[0], s[1])
	}
	// i has a single loop: stride = stepCov(i) = 1.
	if s[2] != 1 {
		t.Errorf("i stride = %d", s[2])
	}
}

func TestNodeHelpers(t *testing.T) {
	g := chain3()
	leaf := Leaf("l", g.Op("F"), T("i", 4), S("i", 2), T("j", 8), S("j", 4))
	if leaf.TemporalTrips() != 32 {
		t.Errorf("trips = %d", leaf.TemporalTrips())
	}
	if leaf.SpatialProduct() != 8 {
		t.Errorf("spatial = %d", leaf.SpatialProduct())
	}
	if leaf.SpatialExtent("i") != 2 || leaf.SpatialExtent("j") != 4 {
		t.Error("SpatialExtent")
	}
	if leaf.DimExtent("i") != 8 || leaf.DimExtent("j") != 32 {
		t.Error("DimExtent")
	}
	if !leaf.IsLeaf() {
		t.Error("IsLeaf")
	}
	node := Tile("n", 1, Pipe, nil, leaf)
	if len(node.Leaves()) != 1 {
		t.Error("Leaves")
	}
	if node.Binding.String() != "Pipe" || Seq.String() != "Seq" || Shar.String() != "Shar" || Para.String() != "Para" {
		t.Error("binding names")
	}
	if Temporal.String() != "Tp" || Spatial.String() != "Sp" {
		t.Error("loop kind names")
	}
}

func TestBuildTreeRejects(t *testing.T) {
	g := chain3()
	op := g.Op("F")
	// Operator in two leaves.
	l1 := Leaf("a", op, T("i", 32), T("j", 32))
	l2 := Leaf("b", op, T("i", 32), T("j", 32))
	if _, err := buildTree(Tile("r", 2, Seq, nil, l1, l2), g); err == nil {
		t.Error("want duplicate-operator error")
	}
	// Interior node without children.
	if _, err := buildTree(Tile("r", 2, Seq, nil), g); err == nil {
		t.Error("want childless-interior error")
	}
	// Child above parent level.
	hi := Tile("hi", 3, Seq, nil, Leaf("x", op, T("i", 32), T("j", 32)))
	if _, err := buildTree(Tile("r", 2, Seq, nil, hi), g); err == nil {
		t.Error("want level-inversion error")
	}
}

func TestExplainProfilesTree(t *testing.T) {
	g := chain3()
	lf := Leaf("lf", g.Op("F"), T("i", 8), T("j", 32))
	lg := Leaf("lg", g.Op("G"), T("i", 8), T("j", 32))
	lh := Leaf("lh", g.Op("H"), T("i", 8), T("j", 32))
	stage := Tile("stage", 1, Shar, []Loop{T("i", 4)}, lf, lg, lh)
	root := Tile("root", 2, Seq, nil, stage)
	spec := archEdgeForTest()
	reports, err := Explain(root, g, spec, Options{SkipCapacityCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d, want 5 nodes", len(reports))
	}
	byName := map[string]NodeReport{}
	for _, r := range reports {
		byName[r.Name] = r
	}
	// The stage moves the graph inputs/outputs; its fills are positive
	// and the leaves' fills come out of the stage.
	if byName["stage"].FillWords <= 0 {
		t.Error("stage has no fills")
	}
	for _, leaf := range []string{"lf", "lg", "lh"} {
		r := byName[leaf]
		if !r.IsLeaf || r.FillWords <= 0 || r.Invocations != 4 {
			t.Errorf("%s report wrong: %+v", leaf, r)
		}
	}
	// The profile's node set and the evaluation agree on totals.
	res, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	var leafFills float64
	for _, leaf := range []string{"lf", "lg", "lh"} {
		leafFills += byName[leaf].FillWords
	}
	if leafFills != res.DM[1].Read {
		t.Errorf("leaf fills %v != L1 reads %v", leafFills, res.DM[1].Read)
	}
	out := RenderReports(reports)
	if !strings.Contains(out, "stage") || !strings.Contains(out, "bound") {
		t.Error("render incomplete")
	}
}

// TestUnitUsageArenaMatchesRecursive pins the arena form of the unit-usage
// pass (unitUsageInto, used by the evaluator) to the recursive reference
// form (unitUsage, used by the static analyzer) over several structures.
func TestUnitUsageArenaMatchesRecursive(t *testing.T) {
	g := chain3()
	lf := Leaf("lf", g.Op("F"), T("i", 8), S("i", 2), T("j", 32))
	lg := Leaf("lg", g.Op("G"), T("i", 16), T("j", 8), S("j", 4))
	lh := Leaf("lh", g.Op("H"), T("i", 16), T("j", 32))
	stage := Tile("stage", 1, Shar, []Loop{T("i", 2), S("j", 2)}, lf, lg, lh)
	root := Tile("root", 2, Seq, []Loop{T("i", 2)}, stage)
	for _, numLevels := range []int{2, 3, 4} {
		tr, err := buildTree(root, g)
		if err != nil {
			t.Fatal(err)
		}
		want := unitUsage(root, numLevels)
		buf := make([]int, len(tr.nodeSet)*numLevels)
		got := tr.unitUsageInto(buf, numLevels)
		if len(got) != len(want) {
			t.Fatalf("numLevels=%d: lengths %d vs %d", numLevels, len(got), len(want))
		}
		for l := range want {
			if got[l] != want[l] {
				t.Errorf("numLevels=%d level %d: arena %d, recursive %d", numLevels, l, got[l], want[l])
			}
		}
	}
}
