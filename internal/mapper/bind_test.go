package mapper

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// binderTemplates lists every dataflows constructor for one spec, each of
// which must implement dataflows.Binder.
func binderTemplates(spec *arch.Spec) []dataflows.Dataflow {
	as, _ := workload.AttentionShapeByName("ViT/16-B")
	cs, _ := workload.ConvChainShapeByName("CC3")
	return []dataflows.Dataflow{
		dataflows.LayerwiseAttention(as, spec),
		dataflows.UniPipe(as, spec),
		dataflows.FLATMGran(as, spec),
		dataflows.FLATBGran(as, spec),
		dataflows.FLATHGran(as, spec),
		dataflows.FLATRGran(as, spec),
		dataflows.Chimera(as, spec),
		dataflows.TileFlowAttention(as, spec),
		dataflows.CustomAttention("Custom", as, spec, []string{"m", "l"}, core.Para, false),
		dataflows.LayerwiseConv(cs, spec),
		dataflows.FusedLayer(cs, spec),
		dataflows.ISOS(cs, spec),
		dataflows.TileFlowConv(cs, spec),
	}
}

// randomVector draws a factor vector: mostly divisors, with some
// non-divisors and non-positive values so that a share of the draws is
// rejected.
func randomVector(rng *rand.Rand, specs []dataflows.FactorSpec) []int {
	v := make([]int, len(specs))
	for i, f := range specs {
		switch r := rng.Intn(16); {
		case r == 0:
			v[i] = 2 + rng.Intn(7)
		case r == 1:
			v[i] = -rng.Intn(2)
		default:
			ch := f.Choices()
			v[i] = ch[rng.Intn(len(ch))]
		}
	}
	return v
}

// checkBindMatchesBuild binds n seeded vectors in sequence into one root
// and requires each to match a fresh Build of the vector's map form: the
// same tree text, or the same error. It returns how many times a vector
// bound successfully right after a rejection.
func checkBindMatchesBuild(t *testing.T, name string, df dataflows.Dataflow, rng *rand.Rand, n int) (afterReject int) {
	t.Helper()
	b, ok := df.(dataflows.Binder)
	if !ok {
		t.Fatalf("%s: not a Binder", name)
	}
	specs := df.Factors()
	def, defErr := df.Build(df.DefaultFactors())
	got, err := b.Bind(nil, dataflows.FactorVector(specs, df.DefaultFactors()))
	if fmt.Sprint(err) != fmt.Sprint(defErr) || (err == nil && got.String() != def.String()) {
		t.Fatalf("%s: the default factors bind differently from their map form (errors %v, %v)", name, err, defErr)
	}
	var root *core.Node
	rejected := false
	vecs := [][]int{dataflows.FactorVector(specs, df.DefaultFactors())}
	for len(vecs) < n {
		vecs = append(vecs, randomVector(rng, specs))
	}
	for _, v := range vecs {
		m := make(map[string]int, len(specs))
		for i, f := range specs {
			m[f.Key] = v[i]
		}
		want, wantErr := df.Build(m)
		got, gotErr := b.Bind(root, v)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %v: Bind error %v, Build error %v", name, v, gotErr, wantErr)
		}
		if wantErr != nil {
			rejected = true
			continue
		}
		if root != nil && got != root {
			t.Fatalf("%s %v: Bind returned a new tree instead of rebinding", name, v)
		}
		if got.String() != want.String() {
			t.Fatalf("%s %v: Bind tree\n%s\nBuild tree\n%s", name, v, got, want)
		}
		if rejected && root != nil {
			afterReject++
		}
		rejected = false
		root = got
	}
	return afterReject
}

// TestBindMatchesBuildTemplates: every dataflows constructor, on edge and
// cloud, binds each vector of a seeded sequence into one reused tree
// exactly as a fresh Build of the map form would build it.
func TestBindMatchesBuildTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	afterReject := 0
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		for _, df := range binderTemplates(spec) {
			afterReject += checkBindMatchesBuild(t, spec.Name+"/"+df.Name()+"/"+df.Graph().Name, df, rng, 120)
		}
	}
	if afterReject < 100 {
		t.Fatalf("only %d binds right after a rejection; the sequences need more", afterReject)
	}
}

// TestBindMatchesBuildGenerated: the same differential over seeded random
// encodings of an attention and a convolution graph on edge and cloud.
func TestBindMatchesBuildGenerated(t *testing.T) {
	as, _ := workload.AttentionShapeByName("Bert-S")
	cs, _ := workload.ConvChainShapeByName("CC3")
	rng := rand.New(rand.NewSource(29))
	encodings, afterReject := 0, 0
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		for _, g := range []*workload.Graph{workload.Attention(as), workload.ConvChain(cs)} {
			ts := &TreeSearch{G: g, Spec: spec}
			for i := 0; i < 60; i++ {
				enc := ts.randomEncoding(rng)
				gd := NewGeneratedDataflow("gen", g, spec, enc)
				afterReject += checkBindMatchesBuild(t, fmt.Sprintf("%s/%s/%s", spec.Name, g.Name, enc), gd, rng, 24)
				encodings++
			}
		}
	}
	if encodings < 200 || afterReject < 100 {
		t.Fatalf("covered %d encodings (want >= 200) with %d binds right after a rejection (want >= 100)", encodings, afterReject)
	}
}

// TestGeneratedBuildReadsSplitsOutsideFactors: Build keeps reading sp_s
// from its map on Edge, where Factors omits it, so the map form still
// reaches every tree Build ever produced.
func TestGeneratedBuildReadsSplitsOutsideFactors(t *testing.T) {
	as, _ := workload.AttentionShapeByName("Bert-S")
	gd := NewGeneratedDataflow("gen", workload.Attention(as), arch.Edge(), LayerwiseEncoding(7))
	for _, f := range gd.Factors() {
		if f.Key == "sp_s" {
			t.Fatal("Edge factor space lists sp_s")
		}
	}
	root, err := gd.Build(map[string]int{"sp_s": 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	root.Walk(func(n *core.Node) {
		for _, l := range n.Loops {
			found = found || (l.Kind == core.Spatial && l.Dim == gd.SubDim && l.Extent == 4)
		}
	})
	if !found {
		t.Errorf("sp_s=4 left no spatial %s loop:\n%s", gd.SubDim, root)
	}
	if _, err := gd.Build(map[string]int{"sp_s": 3}); err == nil || err.Error() != "mapper: sp_s=3 does not divide m" {
		t.Errorf("sp_s=3: error %v", err)
	}
}

// buildOnly hides a template's Binder, forcing TileSearch onto the
// Build route.
type buildOnly struct{ dataflows.Dataflow }

// TestTileSearchBindRouteMatchesBuildRoute: a Binder template and the same
// template behind a Build-only wrapper report identical best factors, best
// cycles and traces.
func TestTileSearchBindRouteMatchesBuildRoute(t *testing.T) {
	as, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	g := workload.Attention(as)
	enc := (&TreeSearch{G: g, Spec: spec}).randomEncoding(rand.New(rand.NewSource(5)))
	for _, mk := range []func() dataflows.Dataflow{
		func() dataflows.Dataflow { return dataflows.TileFlowAttention(as, spec) },
		func() dataflows.Dataflow { return dataflows.Chimera(as, spec) },
		func() dataflows.Dataflow { return NewGeneratedDataflow("gen", g, spec, enc) },
	} {
		for _, seed := range []int64{1, 2, 3, 4} {
			bind := &TileSearch{Dataflow: mk(), Spec: spec, Rounds: 80, Seed: seed}
			build := &TileSearch{Dataflow: buildOnly{mk()}, Spec: spec, Rounds: 80, Seed: seed}
			gotBest, gotTrace := bind.Run()
			wantBest, wantTrace := build.Run()
			if gotBest == nil || wantBest == nil {
				t.Fatalf("%s seed %d: no mapping (bind %v, build %v)", bind.Dataflow.Name(), seed, gotBest, wantBest)
			}
			if gotBest.Cycles != wantBest.Cycles || !reflect.DeepEqual(gotBest.Factors, wantBest.Factors) {
				t.Errorf("%s seed %d: bind route %v (%v cycles), build route %v (%v cycles)",
					bind.Dataflow.Name(), seed, gotBest.Factors, gotBest.Cycles, wantBest.Factors, wantBest.Cycles)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Errorf("%s seed %d: traces differ", bind.Dataflow.Name(), seed)
			}
		}
	}
}

// TestBindEvaluateDeltaZeroAlloc: once warmed, binding a candidate into the
// search's tree and delta-evaluating it allocates nothing, for a named
// template and for a generated one.
func TestBindEvaluateDeltaZeroAlloc(t *testing.T) {
	as, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	g := workload.Attention(as)
	enc := (&TreeSearch{G: g, Spec: spec}).randomEncoding(rand.New(rand.NewSource(11)))
	for _, df := range []dataflows.Dataflow{
		dataflows.TileFlowAttention(as, spec),
		NewGeneratedDataflow("gen", g, spec, enc),
	} {
		b := df.(dataflows.Binder)
		specs := df.Factors()
		rng := rand.New(rand.NewSource(3))
		// A few valid candidates to alternate between.
		var vecs [][]int
		for len(vecs) < 4 {
			v := make([]int, len(specs))
			for i, f := range specs {
				ch := f.Choices()
				v[i] = ch[rng.Intn(len(ch))]
			}
			if r, err := b.Bind(nil, v); err == nil {
				if _, err := core.Evaluate(r, df.Graph(), spec, core.Options{}); err == nil {
					vecs = append(vecs, v)
				}
			}
		}
		root, err := b.Bind(nil, vecs[0])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(root, df.Graph(), spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{}
		delta := prog.NewDelta(opts)
		ctx := context.Background()
		step := func(i int) {
			if _, err := b.Bind(root, vecs[i%len(vecs)]); err != nil {
				t.Fatal(err)
			}
			if _, err := prog.EvaluateDelta(ctx, delta, root, opts); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*len(vecs); i++ {
			step(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			step(i)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Bind + EvaluateDelta allocates %v objects per candidate, want 0", df.Name(), allocs)
		}
	}
}
