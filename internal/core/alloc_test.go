package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// TestEvaluateIntoZeroAlloc guards the arena contract: once a Scratch has
// been warmed, steady-state evaluation allocates nothing. This is what the
// mapper's inner loop relies on for throughput.
func TestEvaluateIntoZeroAlloc(t *testing.T) {
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.NewScratch()
	ctx := context.Background()
	// Warm-up: first run sizes any lazily-grown rows.
	if _, err := prog.EvaluateInto(ctx, s, core.Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := prog.EvaluateInto(ctx, s, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvaluateInto allocates %v objects per run in steady state, want 0", allocs)
	}
}

// TestEvaluateDeltaSteadyStateAllocs: a delta re-evaluation of an unchanged
// tree reuses the state's arena end to end. The only tolerated allocations
// are the rebind of the caller's tree into the view (bounded, not O(tree)).
func TestEvaluateDeltaSteadyStateAllocs(t *testing.T) {
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	ctx := context.Background()
	if _, err := prog.EvaluateDelta(ctx, d, root, core.Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := prog.EvaluateDelta(ctx, d, root, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("EvaluateDelta allocates %v objects per steady-state run, want <= 4", allocs)
	}
}

// TestWithTilingAllocs guards the rebind fast path: re-targeting a compiled
// Program at a new tiling of the same structure must stay under 20
// allocations (down from 139 before the arena refactor).
func TestWithTilingAllocs(t *testing.T) {
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, tilings := perturbedFactorWalk(t, 17, 8)
	// Warm-up one rebind of each candidate.
	for _, cand := range tilings {
		if _, err := prog.WithTiling(cand); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		cand := tilings[i%len(tilings)]
		i++
		if _, err := prog.WithTiling(cand); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 20 {
		t.Errorf("WithTiling allocates %v objects per run, want < 20", allocs)
	}
}

// TestCompileAllocs pins Compile's allocation count. The structure tables
// are masks over dense dim ids carved from flat buffers, with one slice of
// groups and one of access references per node, so a compile allocates a
// few slices per node instead of maps per node, group and access (840
// and 886 allocations before, 80 and 91 after). Checked on a named
// template and on a fused tree generated from a GA encoding.
func TestCompileAllocs(t *testing.T) {
	root, g, spec := benchDesignPoint(t)
	as, _ := workload.AttentionShapeByName("Bert-S")
	ga := workload.Attention(as)
	enc := &mapper.Encoding{
		Target:  []int{1, 2, 3, 4, 5, 6, -1},
		Mem:     []int{1, 1, 1, 1, 1, 1, 1},
		Binding: []core.Binding{core.Seq, core.Shar, core.Pipe, core.Para, core.Seq, core.Shar, core.Seq},
	}
	gd := mapper.NewGeneratedDataflow("gen", ga, spec, enc)
	groot, err := gd.Build(gd.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		root *core.Node
		g    *workload.Graph
	}{{"FLAT-RGran", root, g}, {"generated", groot, ga}} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := core.Compile(c.root, c.g, spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per Compile", c.name, allocs)
		if allocs > 120 {
			t.Errorf("%s: Compile allocates %v objects, want <= 120", c.name, allocs)
		}
	}
}
