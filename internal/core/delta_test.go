package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// TestEvaluateDeltaMatchesCold walks a 120-step seeded perturbation chain
// through EvaluateDelta (each step differs from the previous by one factor,
// the case the delta cache is built for) and pins every step — feasible and
// capacity-infeasible alike — bit-identical to the cold route.
func TestEvaluateDeltaMatchesCold(t *testing.T) {
	df, tilings := perturbedFactorWalk(t, 1103, 120)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	okCount, oomCount := 0, 0
	for i, cand := range tilings {
		cold, coldErr := core.Evaluate(cand, df.Graph(), spec, core.Options{})
		res, errD := prog.EvaluateDelta(context.Background(), d, cand, core.Options{})
		if (coldErr == nil) != (errD == nil) {
			t.Fatalf("step %d: cold err %v, delta err %v", i, coldErr, errD)
		}
		if coldErr != nil {
			if coldErr.Error() != errD.Error() {
				t.Fatalf("step %d: cold err %q, delta err %q", i, coldErr, errD)
			}
			if core.IsOOM(coldErr) {
				oomCount++
			}
			continue
		}
		okCount++
		assertResultsIdentical(t, fmt.Sprintf("delta step %d", i), cold, res)
	}
	if okCount == 0 {
		t.Fatal("no feasible points in the chain; test exercised nothing")
	}
	t.Logf("delta matched cold on %d feasible / %d OOM / %d other-error steps",
		okCount, oomCount, len(tilings)-okCount-oomCount)
}

// TestEvaluateDeltaRepeatedTiling: evaluating the same tree twice through
// the delta state (zero dirty nodes, full replay) still matches cold.
func TestEvaluateDeltaRepeatedTiling(t *testing.T) {
	df, tilings := perturbedFactorWalk(t, 7, 5)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	for i, cand := range tilings {
		cold, coldErr := core.Evaluate(cand, df.Graph(), spec, core.Options{})
		for rep := 0; rep < 3; rep++ {
			res, errD := prog.EvaluateDelta(context.Background(), d, cand, core.Options{})
			if (coldErr == nil) != (errD == nil) {
				t.Fatalf("step %d rep %d: cold err %v, delta err %v", i, rep, coldErr, errD)
			}
			if coldErr != nil {
				continue
			}
			assertResultsIdentical(t, fmt.Sprintf("step %d rep %d", i, rep), cold, res)
		}
	}
}

// TestEvaluateDeltaOptionsChange: switching Options mid-chain poisons the
// caches and the state recovers with results identical to cold under the
// new options.
func TestEvaluateDeltaOptionsChange(t *testing.T) {
	df, tilings := perturbedFactorWalk(t, 51, 40)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	for i, cand := range tilings {
		opts := core.Options{}
		if i%3 == 2 {
			opts = core.Options{SkipCapacityCheck: true}
		}
		cold, coldErr := core.Evaluate(cand, df.Graph(), spec, opts)
		res, errD := prog.EvaluateDelta(context.Background(), d, cand, opts)
		if (coldErr == nil) != (errD == nil) {
			t.Fatalf("step %d: cold err %v, delta err %v", i, coldErr, errD)
		}
		if coldErr != nil {
			if coldErr.Error() != errD.Error() {
				t.Fatalf("step %d: cold err %q, delta err %q", i, coldErr, errD)
			}
			continue
		}
		assertResultsIdentical(t, fmt.Sprintf("opts step %d", i), cold, res)
	}
}

// TestEvaluateDeltaInvalidRecovery: an invalid tiling (wrong dim coverage)
// errors out of the pipeline before the cached phases complete, poisoning
// the caches; the next valid tilings must still match cold exactly.
func TestEvaluateDeltaInvalidRecovery(t *testing.T) {
	df, tilings := perturbedFactorWalk(t, 99, 20)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	// Prime the caches on a valid point.
	if _, err := prog.EvaluateDelta(context.Background(), d, tilings[0], core.Options{}); err != nil && !core.IsOOM(err) {
		t.Fatalf("prime: %v", err)
	}
	// Corrupt one leaf loop in place so a dim's coverage no longer matches
	// the operator's size, run it, then restore.
	var leaf *core.Node
	var stack []*core.Node
	stack = append(stack, tilings[1])
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsLeaf() && len(n.Loops) > 0 {
			leaf = n
			break
		}
		stack = append(stack, n.Children...)
	}
	if leaf == nil {
		t.Fatal("no leaf with loops found")
	}
	saved := leaf.Loops[0]
	leaf.Loops[0].Extent = saved.Extent * 13
	if _, err := prog.EvaluateDelta(context.Background(), d, tilings[1], core.Options{}); err == nil {
		t.Fatal("corrupted tiling evaluated without error")
	}
	leaf.Loops[0] = saved
	// Every subsequent point must still be bit-identical to cold.
	for i, cand := range tilings[1:] {
		cold, coldErr := core.Evaluate(cand, df.Graph(), spec, core.Options{})
		res, errD := prog.EvaluateDelta(context.Background(), d, cand, core.Options{})
		if (coldErr == nil) != (errD == nil) {
			t.Fatalf("recovery step %d: cold err %v, delta err %v", i, coldErr, errD)
		}
		if coldErr != nil {
			continue
		}
		assertResultsIdentical(t, fmt.Sprintf("recovery step %d", i), cold, res)
	}
}

// TestEvaluateDeltaCancellation: a done context fails the call with
// ctx.Err() mid-chain, and the poisoned caches recover on the next live
// call, which must match cold exactly.
func TestEvaluateDeltaCancellation(t *testing.T) {
	df, tilings := perturbedFactorWalk(t, 42, 10)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, cand := range tilings {
		if i%3 == 1 {
			if res, err := prog.EvaluateDelta(cancelled, d, cand, core.Options{}); res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d not cancelled: res=%v err=%v", i, res, err)
			}
			continue
		}
		cold, coldErr := core.Evaluate(cand, df.Graph(), spec, core.Options{})
		res, errD := prog.EvaluateDelta(context.Background(), d, cand, core.Options{})
		if (coldErr == nil) != (errD == nil) {
			t.Fatalf("step %d: cold err %v, delta err %v", i, coldErr, errD)
		}
		if coldErr == nil {
			assertResultsIdentical(t, fmt.Sprintf("step %d", i), cold, res)
		}
	}
}

// TestEvaluateDeltaResultClone: the returned Result aliases the state's
// arena; Clone detaches it.
func TestEvaluateDeltaResultClone(t *testing.T) {
	_, tilings := perturbedFactorWalk(t, 3, 30)
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	var first *core.Result
	var firstCycles float64
	for _, cand := range tilings {
		res, errD := prog.EvaluateDelta(context.Background(), d, cand, core.Options{})
		if errD != nil {
			continue
		}
		if first == nil {
			first = res.Clone()
			firstCycles = res.Cycles
		}
	}
	if first == nil {
		t.Skip("no feasible point in chain")
	}
	if first.Cycles != firstCycles {
		t.Fatalf("cloned result mutated: %v vs %v", first.Cycles, firstCycles)
	}
}

// perturbedFactorWalk builds n tilings of the benchmark structure by
// walking the dataflow's factor space with a seeded RNG (one random factor
// moves to a random divisor per step). Some candidates are infeasible (over
// capacity), which is exactly what a mapper feeds the evaluator.
func perturbedFactorWalk(tb testing.TB, seed int64, n int) (dataflows.Dataflow, []*core.Node) {
	tb.Helper()
	shape, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		tb.Fatal("attention shape Bert-S not found")
	}
	df := dataflows.FLATRGran(shape, arch.Edge())
	specs := df.Factors()
	rng := rand.New(rand.NewSource(seed))
	f := df.DefaultFactors()
	tilings := make([]*core.Node, 0, n)
	for len(tilings) < n {
		nf := make(map[string]int, len(f))
		for k, v := range f {
			nf[k] = v
		}
		fs := specs[rng.Intn(len(specs))]
		ch := fs.Choices()
		nf[fs.Key] = ch[rng.Intn(len(ch))]
		cand, err := df.Build(nf)
		if err != nil {
			continue
		}
		f = nf
		tilings = append(tilings, cand)
	}
	return df, tilings
}

// assertResultsIdentical compares every field of two Results for exact
// (bitwise, for floats) equality.
func assertResultsIdentical(t *testing.T, what string, a, b *core.Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.ComputeCycles != b.ComputeCycles {
		t.Fatalf("%s: cycles %v/%v vs %v/%v", what, a.Cycles, a.ComputeCycles, b.Cycles, b.ComputeCycles)
	}
	if a.MACs != b.MACs || a.VectorOps != b.VectorOps {
		t.Fatalf("%s: ops differ", what)
	}
	if a.PEsUsed != b.PEsUsed || a.TotalPEs != b.TotalPEs || a.Utilization != b.Utilization {
		t.Fatalf("%s: PE figures differ", what)
	}
	if len(a.DM) != len(b.DM) {
		t.Fatalf("%s: DM lengths differ", what)
	}
	for l := range a.DM {
		if a.DM[l] != b.DM[l] {
			t.Fatalf("%s: DM[%d] %+v vs %+v", what, l, a.DM[l], b.DM[l])
		}
	}
	if len(a.TensorDM) != len(b.TensorDM) {
		t.Fatalf("%s: TensorDM key sets differ: %d vs %d", what, len(a.TensorDM), len(b.TensorDM))
	}
	for k, av := range a.TensorDM {
		bv, ok := b.TensorDM[k]
		if !ok || len(av) != len(bv) {
			t.Fatalf("%s: TensorDM[%q] missing or wrong length", what, k)
		}
		for l := range av {
			if av[l] != bv[l] {
				t.Fatalf("%s: TensorDM[%q][%d] %+v vs %+v", what, k, l, av[l], bv[l])
			}
		}
	}
	for l := range a.UnitUsage {
		if a.UnitUsage[l] != b.UnitUsage[l] {
			t.Fatalf("%s: UnitUsage[%d] differs", what, l)
		}
	}
	for l := range a.FootprintWords {
		if a.FootprintWords[l] != b.FootprintWords[l] {
			t.Fatalf("%s: FootprintWords[%d] %d vs %d", what, l, a.FootprintWords[l], b.FootprintWords[l])
		}
	}
	for l := range a.SlowDown {
		if a.SlowDown[l] != b.SlowDown[l] || a.BandwidthReqGBs[l] != b.BandwidthReqGBs[l] {
			t.Fatalf("%s: slowdown/bandwidth[%d] differ", what, l)
		}
	}
	if a.Energy.ComputePJ != b.Energy.ComputePJ {
		t.Fatalf("%s: compute energy differs", what)
	}
	for l := range a.Energy.PerLevelPJ {
		if a.Energy.PerLevelPJ[l] != b.Energy.PerLevelPJ[l] {
			t.Fatalf("%s: energy[%d] differs", what, l)
		}
	}
}
