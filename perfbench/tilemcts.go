package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// The canonical mapper point: the TileFlow attention template on
// ViT/16-B, edge accelerator, 100 MCTS rounds (101 candidates a search:
// the default-factor seed plus one per round).
const (
	tileShape      = "ViT/16-B"
	tileRounds     = 100
	tileCandidates = tileRounds + 1
	// tileSetSize is the seeded set of searches best_cycles is taken
	// over; the timed loop cycles through it.
	tileSetSize = 1024
	tileWarmup  = 128
)

// tileSeeds derives the search seeds of the seeded set from the workload
// seed.
func tileSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, tileSetSize)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

func tilePoint() (workload.AttentionShape, *arch.Spec) {
	shape, ok := workload.AttentionShapeByName(tileShape)
	if !ok {
		panic("missing attention shape " + tileShape)
	}
	return shape, arch.Edge()
}

// tileSearch runs one search the way an architect tuning one template
// does: a fresh template, the default options, a fixed seed.
func tileSearch(df dataflows.Dataflow, spec *arch.Spec, seed int64) *mapper.Evaluation {
	s := &mapper.TileSearch{Dataflow: df, Spec: spec, Rounds: tileRounds, Seed: seed}
	best, _ := s.Run()
	return best
}

// tileBests holds the first result of every seed in the set; later
// visits of a seed must reproduce it exactly.
type tileBests struct {
	cycles  []float64
	factors []map[string]int
}

func newTileBests() *tileBests {
	return &tileBests{cycles: make([]float64, tileSetSize), factors: make([]map[string]int, tileSetSize)}
}

// observe records or checks one search result; it reports false for a
// failed operation (no mapping, or a result differing from an earlier run
// of the same seed).
func (b *tileBests) observe(i int, best *mapper.Evaluation) bool {
	if best == nil {
		return false
	}
	if b.factors[i] == nil {
		b.cycles[i], b.factors[i] = best.Cycles, best.Factors
		return true
	}
	return b.cycles[i] == best.Cycles
}

// fill runs the set's missing seeds, untimed, so best_cycles always covers
// the whole set.
func (b *tileBests) fill(shape workload.AttentionShape, spec *arch.Spec, seeds []int64) (attempted, failed int) {
	for i, f := range b.factors {
		if f != nil {
			continue
		}
		attempted++
		if !b.observe(i, tileSearch(dataflows.TileFlowAttention(shape, spec), spec, seeds[i])) {
			failed++
		}
	}
	return attempted, failed
}

// check re-derives every best mapping through the cold route: a fresh
// Build and core.Evaluate must give the reported cycles.
func (b *tileBests) check(shape workload.AttentionShape, spec *arch.Spec) (failed int) {
	df := dataflows.TileFlowAttention(shape, spec)
	for i, f := range b.factors {
		root, err := df.Build(f)
		if err != nil {
			failed++
			continue
		}
		res, err := core.Evaluate(root, df.Graph(), spec, core.Options{})
		if err != nil || res.Cycles != b.cycles[i] {
			failed++
		}
	}
	return failed
}

func runTileMCTS(rc *runCtx) (*outcome, error) {
	shape, spec := tilePoint()
	seeds := tileSeeds(rc.seed)
	rc.stamp["inputs_digest"] = digestOf(fmt.Sprint(tileShape, tileRounds, seeds))
	setup, err := rc.timeSetup(setupReps, func() error {
		for i := 0; i < tileWarmup; i++ {
			if tileSearch(dataflows.TileFlowAttention(shape, spec), spec, seeds[i]) == nil {
				return fmt.Errorf("warm-up search found no mapping")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	bests := newTileBests()
	window := rc.window
	if rc.trace {
		window = rc.window / 3
	}

	// Untraced loop: searches back to back on one goroutine.
	mem0, cpu0 := snapMem(), rc.workCPU()
	var times []float64
	start := time.Now()
	for n := 0; time.Since(start) < window; n++ {
		i := n % tileSetSize
		t0 := time.Now()
		best := tileSearch(dataflows.TileFlowAttention(shape, spec), spec, seeds[i])
		times = append(times, time.Since(t0).Seconds())
		out.attempted++
		if !bests.observe(i, best) {
			out.failed++
		}
	}
	mem1, cpu1 := snapMem(), rc.workCPU()
	rc.timedWindow(mem0.at, mem1.at)
	searches := len(times)
	medianS := median(times)
	m := out.metrics
	m["setup_s"] = setup
	m["cpu_us_per_eval"] = us(cpu1-cpu0) / float64(searches*tileCandidates)
	m["wall.evals_per_s"] = tileCandidates / medianS
	rc.stamp["samples"] = searches

	if rc.trace {
		runtimeMetrics(m, mem0, mem1, searches*tileCandidates)
		m["mapper.cpu_util"] = ratio(float64(cpu1-cpu0), float64(mem1.at.Sub(mem0.at)))
		n, f, err := tileTraced(rc, shape, spec, seeds, bests, medianS, m)
		if err != nil {
			return nil, err
		}
		out.attempted += n
		out.failed += f
	}

	n, f := bests.fill(shape, spec, seeds)
	out.attempted += n
	out.failed += f
	out.failed += bests.check(shape, spec)
	m["best_cycles"] = geomean(bests.cycles)
	rc.stamp["best_cycles"] = m["best_cycles"]
	return out, nil
}

// timedDataflow forwards a template and records a dataflows.Build span per
// call, keeping every built tree (nil for a failed build) for the replay.
// It forwards the structure-stability declaration too: without it the
// mapper would take its cold QuickReject branch and the trace would
// measure a different program.
type timedDataflow struct {
	dataflows.Dataflow
	spans         *tracer
	trace, parent int32
	trees         []*core.Node
	builds, fails int
}

func (d *timedDataflow) Build(f map[string]int) (*core.Node, error) {
	i := d.spans.begin("dataflows.Build", d.trace, d.parent)
	root, err := d.Dataflow.Build(f)
	d.spans.finish(i)
	d.builds++
	if err != nil {
		d.fails++
		root = nil
	}
	d.trees = append(d.trees, root)
	return root, err
}

func (d *timedDataflow) StructureStable() bool { return dataflows.IsStructureStable(d.Dataflow) }

// tileTraced runs the traced phase: searches through the Build-timing
// wrapper, then a replay of each search's built trees, in order, through
// core.Compile and Program.EvaluateDelta. The mapper's own time is what
// the search's wall time leaves after Build and the replayed evaluation.
// untracedS is the untraced loop's median search time.
func tileTraced(rc *runCtx, shape workload.AttentionShape, spec *arch.Spec, seeds []int64, bests *tileBests, untracedS float64, m map[string]float64) (attempted, failed int, err error) {
	ctx := context.Background()
	opts := core.Options{}
	var searchTimes []float64
	var compiles int64
	builds, buildFails, evals, rejects := 0, 0, 0, 0
	deadline := time.Now().Add(rc.window * 2 / 3)
	for n := 0; time.Now().Before(deadline) && !rc.spans.full(); n++ {
		i := n % tileSetSize
		df := &timedDataflow{Dataflow: dataflows.TileFlowAttention(shape, spec), spans: rc.spans, trace: int32(n)}
		df.parent = rc.spans.begin("mapper.TileSearch", int32(n), -1)
		c0 := core.CompileCount()
		t0 := time.Now()
		best := tileSearch(df, spec, seeds[i])
		searchTimes = append(searchTimes, time.Since(t0).Seconds())
		compiles += core.CompileCount() - c0
		rc.spans.finish(df.parent)
		attempted++
		if !bests.observe(i, best) {
			failed++
		}
		builds += df.builds
		buildFails += df.fails

		var prog *core.Program
		var delta *core.DeltaState
		for _, tree := range df.trees {
			if tree == nil {
				continue
			}
			if prog == nil {
				s := rc.spans.begin("core.Compile", int32(n), -1)
				prog, err = core.Compile(tree, df.Graph(), spec)
				rc.spans.finish(s)
				if err != nil {
					return attempted, failed, fmt.Errorf("replay compile: %w", err)
				}
				delta = prog.NewDelta(opts)
			}
			s := rc.spans.begin("core.EvaluateDelta", int32(n), -1)
			_, err := prog.EvaluateDelta(ctx, delta, tree, opts)
			rc.spans.finish(s)
			evals++
			if err != nil {
				rejects++
			}
		}
	}
	st := rc.spans.stats()
	search := st["mapper.TileSearch"].total
	build, eval := st["dataflows.Build"], st["core.EvaluateDelta"]
	searches := len(searchTimes)
	m["trace.overhead_ratio"] = median(searchTimes) / untracedS
	m["dataflows.build_us"] = build.meanUS()
	m["dataflows.build_share"] = ratio(float64(build.total), float64(search))
	m["dataflows.build_fail_ratio"] = ratio(float64(buildFails), float64(builds))
	m["core.eval_us"] = eval.meanUS()
	m["core.eval_share"] = ratio(float64(eval.total), float64(search))
	m["core.reject_ratio"] = ratio(float64(rejects), float64(evals))
	m["core.compiles_per_search"] = ratio(float64(compiles), float64(searches))
	m["core.compile_us"] = st["core.Compile"].meanUS()
	m["mapper.self_share"] = 1 - m["dataflows.build_share"] - m["core.eval_share"]
	m["mapper.valid_ratio"] = ratio(float64(evals-rejects), float64(builds))
	m["mapper.tunings_per_search"] = 1
	rc.table("%s", rc.spans.table(fmt.Sprintf("tile-mcts traced stages (%d searches, %d candidates)", searches, builds)))
	rc.table("# search wall split: Build %.1f%%, evaluate (replayed EvaluateDelta) %.1f%%, mapper self %.1f%%\n",
		100*m["dataflows.build_share"], 100*m["core.eval_share"], 100*m["mapper.self_share"])
	rc.table("# tracing overhead: traced/untraced search time = %.3f\n", m["trace.overhead_ratio"])
	return attempted, failed, nil
}
