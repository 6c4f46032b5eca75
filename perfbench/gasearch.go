package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/workload"
)

// tileflow-search defaults: population 20, 20 generations, 60 MCTS rounds
// per individual (61 candidates a tuning).
const (
	gaPop        = 20
	gaGens       = 20
	gaTileRounds = 60
)

// gaCases is the fixed set one pass runs: attention shapes of three model
// families plus one conv chain, each on both accelerators.
var gaCases = []struct{ workload, arch string }{
	{"attention:Bert-S", "edge"},
	{"attention:Bert-S", "cloud"},
	{"attention:ViT/16-L", "edge"},
	{"attention:ViT/16-L", "cloud"},
	{"attention:T5", "edge"},
	{"attention:T5", "cloud"},
	{"conv:CC3", "edge"},
	{"conv:CC3", "cloud"},
}

// gaSeedSets is how many seed sets best_cycles is taken over: set k
// gives every case its own GA seed, derived from the workload seed. A
// GA's answer swings with its seed, so best_cycles is the geometric mean
// over all sets × cases searches, and a pass runs one set.
const gaSeedSets = 24

type gaCase struct {
	name string
	g    *workload.Graph
	spec *arch.Spec
}

// gaSet builds the pass's cases, in the listed order.
func gaSet() ([]gaCase, error) {
	out := make([]gaCase, len(gaCases))
	for i, c := range gaCases {
		g, err := serve.PickGraph(c.workload)
		if err != nil {
			return nil, err
		}
		spec, err := serve.PickArch(c.arch)
		if err != nil {
			return nil, err
		}
		out[i] = gaCase{name: c.workload + "@" + c.arch, g: g, spec: spec}
	}
	return out, nil
}

// gaSeeds derives the GA seed of every set and case from the workload
// seed: gaSeeds(seed)[k][i] is case i's seed in set k.
func gaSeeds(seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, gaSeedSets)
	for k := range out {
		out[k] = make([]int64, len(gaCases))
		for i := range out[k] {
			out[k][i] = rng.Int63n(1 << 40)
		}
	}
	return out
}

// gaRun is one TreeSearch with its measurements.
type gaRun struct {
	res   *mapper.TreeSearchResult
	stats memo.Stats
	// compiles is the core.Compile count during the search; final is the
	// last checkpoint, whose Tuned list names every tuned encoding.
	compiles int64
	final    *mapper.Checkpoint
	// start is when the search began, ends when each generation ended,
	// wall how long the whole search took.
	start time.Time
	ends  []time.Time
	wall  time.Duration
}

// gens is the wall time of each generation.
func (r *gaRun) gens() []time.Duration {
	out := make([]time.Duration, len(r.ends))
	prev := r.start
	for i, end := range r.ends {
		out[i], prev = end.Sub(prev), end
	}
	return out
}

// candidates is how many tile candidates the search evaluated: every
// fitness-cache miss is one tuning of gaTileRounds+1 candidates.
func (r *gaRun) candidates() int { return int(r.stats.Misses) * (gaTileRounds + 1) }

// gaSearch runs one search as tileflow-search does, with a fresh fitness
// cache and par fitness goroutines (tileflow-search runs one per CPU). The
// Progress callback is the one the job service and -checkpoint install.
func gaSearch(c gaCase, seed int64, par int) *gaRun {
	r := &gaRun{}
	cache := memo.NewShardedLRU(4096)
	r.start = time.Now()
	s := &mapper.TreeSearch{
		G: c.g, Spec: c.spec,
		Population: gaPop, Generations: gaGens, TileRounds: gaTileRounds,
		Parallel: par, Seed: seed, Cache: cache,
		Progress: func(p mapper.ProgressEvent) {
			r.ends = append(r.ends, time.Now())
			r.final = p.Checkpoint
		},
	}
	c0 := core.CompileCount()
	r.res = s.Run()
	r.wall = time.Since(r.start)
	r.compiles = core.CompileCount() - c0
	r.stats = cache.Stats()
	return r
}

// gaBests holds the first result of every search of the seed sets; later
// runs of the same search must reproduce it exactly.
type gaBests struct {
	cases []gaCase
	seeds [][]int64
	res   [][]*mapper.TreeSearchResult
}

func newGABests(cases []gaCase, seeds [][]int64) *gaBests {
	b := &gaBests{cases: cases, seeds: seeds, res: make([][]*mapper.TreeSearchResult, len(seeds))}
	for k := range b.res {
		b.res[k] = make([]*mapper.TreeSearchResult, len(cases))
	}
	return b
}

// observe records or checks one search result; it reports false for a
// failed operation (no mapping, or best cycles differing from an earlier
// run of the same search).
func (b *gaBests) observe(k, i int, r *gaRun) bool {
	if r.res.Best == nil {
		return false
	}
	if b.res[k][i] == nil {
		b.res[k][i] = r.res
		return true
	}
	return b.res[k][i].Best.Cycles == r.res.Best.Cycles
}

// runPass runs seed set k over every case, calls each(i, run) after each
// search, and returns the failed searches.
func (b *gaBests) runPass(k int, each func(i int, r *gaRun) error) (failed int, err error) {
	for i, c := range b.cases {
		r := gaSearch(c, b.seeds[k][i], runtime.NumCPU())
		if !b.observe(k, i, r) {
			failed++
		}
		if each != nil {
			if err := each(i, r); err != nil {
				return failed, err
			}
		}
	}
	return failed, nil
}

// fill runs the sets no timed pass reached, untimed, so best_cycles always
// covers every set.
func (b *gaBests) fill() (attempted, failed int) {
	for k := range b.res {
		if b.res[k][0] != nil {
			continue
		}
		f, _ := b.runPass(k, nil)
		attempted += len(b.cases)
		failed += f
	}
	return attempted, failed
}

// coldCheck rebuilds each best mapping from its encoding and factors and
// re-evaluates it cold; the cycles must equal the reported ones.
func (b *gaBests) coldCheck() (failed int) {
	for k := range b.res {
		for i, res := range b.res[k] {
			c := b.cases[i]
			if res == nil || res.Best == nil {
				failed++
				continue
			}
			gd := mapper.NewGeneratedDataflow("candidate", c.g, c.spec, res.Encoding)
			root, err := gd.Build(res.Best.Factors)
			if err != nil {
				failed++
				continue
			}
			got, err := core.Evaluate(root, c.g, c.spec, core.Options{})
			if err != nil || got.Cycles != res.Best.Cycles {
				failed++
			}
		}
	}
	return failed
}

func (b *gaBests) geomean() float64 {
	var cycles []float64
	for k := range b.res {
		for _, res := range b.res[k] {
			if res != nil && res.Best != nil {
				cycles = append(cycles, res.Best.Cycles)
			}
		}
	}
	return geomean(cycles)
}

func runGASearch(rc *runCtx) (*outcome, error) {
	var cases []gaCase
	setup, err := rc.timeSetup(setupReps, func() error {
		var err error
		if cases, err = gaSet(); err != nil {
			return err
		}
		// The warm-up search is the same for every workload seed, so
		// set-up does the same work whatever the seed. It runs on one
		// goroutine: a barrier-bound parallel search is timed at the
		// mercy of the busier CPU, and set-up is a single-number metric.
		if r := gaSearch(cases[0], 1, 1); r.res.Best == nil {
			return fmt.Errorf("warm-up search found no mapping")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seeds := gaSeeds(rc.seed)
	rc.stamp["inputs_digest"] = digestOf(fmt.Sprint(gaCases, seeds, gaPop, gaGens, gaTileRounds))
	bests := newGABests(cases, seeds)
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	window := rc.window
	if rc.trace {
		window = rc.window / 3
	}

	// Untraced loop: passes back to back, cycling through the seed sets.
	mem0, cpu0 := snapMem(), rc.workCPU()
	var passTimes []float64
	var searchWall time.Duration
	candidates := 0
	start := time.Now()
	for k := 0; time.Since(start) < window || k == 0; k++ {
		t0 := time.Now()
		f, _ := bests.runPass(k%gaSeedSets, func(_ int, r *gaRun) error {
			candidates += r.candidates()
			searchWall += r.wall
			return nil
		})
		passTimes = append(passTimes, time.Since(t0).Seconds())
		out.attempted += len(cases)
		out.failed += f
	}
	mem1, cpu1 := snapMem(), rc.workCPU()
	rc.timedWindow(mem0.at, mem1.at)

	m["setup_s"] = setup
	m["cpu_us_per_eval"] = us(cpu1-cpu0) / float64(candidates)
	m["wall.search_s"] = median(passTimes)
	rc.stamp["samples"] = map[string]int{"passes": len(passTimes), "searches": len(passTimes) * len(cases)}

	if rc.trace {
		par := float64(runtime.NumCPU())
		m["mapper.cpu_util"] = ratio(float64(cpu1-cpu0), float64(mem1.at.Sub(mem0.at))*par)
		runtimeMetrics(m, mem0, mem1, candidates)
		untracedPerEval := ratio(float64(searchWall), float64(candidates))
		n, f, err := gaTraced(rc, bests, len(passTimes), untracedPerEval, m)
		if err != nil {
			return nil, err
		}
		out.attempted += n
		out.failed += f
	}

	n, f := bests.fill()
	out.attempted += n
	out.failed += f
	out.failed += bests.coldCheck()
	m["best_cycles"] = bests.geomean()
	rc.stamp["best_cycles"] = m["best_cycles"]
	return out, nil
}

// gaTraced runs traced passes, continuing the seed-set cycle at set k0: a
// mapper.TreeSearch span per search with a mapper.generation child per
// Progress interval, then core.Compile timed on each tuned encoding's
// default tree from the final checkpoint. The tracing overhead compares
// search time per candidate with the untraced loop's, so the Compile
// replay between searches does not count as overhead.
func gaTraced(rc *runCtx, bests *gaBests, k0 int, untracedPerEval float64, m map[string]float64) (attempted, failed int, err error) {
	var genMS []float64
	var hits, misses uint64
	var compiles int64
	var searchWall time.Duration
	searches, candidates, passes := 0, 0, 0
	deadline := time.Now().Add(rc.window * 2 / 3)
	for k := k0; passes == 0 || (time.Now().Before(deadline) && !rc.spans.full()); k++ {
		f, err := bests.runPass(k%gaSeedSets, func(i int, r *gaRun) error {
			trace := int32(searches)
			root := rc.spans.record("mapper.TreeSearch", trace, -1, r.start, r.start.Add(r.wall))
			for j, g := range r.gens() {
				rc.spans.record("mapper.generation", trace, root, r.ends[j].Add(-g), r.ends[j])
				genMS = append(genMS, ms(g))
			}
			hits += r.stats.Hits
			misses += r.stats.Misses
			compiles += r.compiles
			candidates += r.candidates()
			searchWall += r.wall
			searches++
			return replayCompiles(rc.spans, trace, bests.cases[i], r.final)
		})
		if err != nil {
			return attempted, failed, err
		}
		passes++
		attempted += len(bests.cases)
		failed += f
	}
	st := rc.spans.stats()
	m["trace.overhead_ratio"] = ratio(ratio(float64(searchWall), float64(candidates)), untracedPerEval)
	m["memo.fitness_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["mapper.tunings_per_search"] = ratio(float64(misses), float64(searches))
	m["core.compiles_per_search"] = ratio(float64(compiles), float64(searches))
	m["core.compile_us"] = st["core.Compile"].meanUS()
	m["mapper.gen_ms_p50"] = median(genMS)
	m["mapper.gen_ms_max"] = quantile(genMS, 1)
	rc.table("%s", rc.spans.table(fmt.Sprintf("ga-search traced stages (%d searches, %d passes)", searches, passes)))
	rc.table("# tracing overhead: traced/untraced search time per candidate = %.3f\n", m["trace.overhead_ratio"])
	return attempted, failed, nil
}

// replayCompiles times core.Compile on the default-factor tree of every
// encoding the search tuned.
func replayCompiles(spans *tracer, trace int32, c gaCase, cp *mapper.Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("%s: search reported no checkpoint", c.name)
	}
	for _, t := range cp.Tuned {
		enc := &mapper.Encoding{Target: t.Encoding.Target, Mem: t.Encoding.Mem, Binding: make([]core.Binding, len(t.Encoding.Binding))}
		for i, b := range t.Encoding.Binding {
			enc.Binding[i] = core.Binding(b)
		}
		gd := mapper.NewGeneratedDataflow("candidate", c.g, c.spec, enc)
		root, err := gd.Build(gd.DefaultFactors())
		if err != nil {
			continue // the mapper skips the same tree
		}
		// A rejected structure still costs its compile time.
		s := spans.begin("core.Compile", trace, -1)
		core.Compile(root, c.g, c.spec)
		spans.finish(s)
	}
	return nil
}
