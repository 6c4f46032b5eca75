package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflows"
)

// TestMain lets the test binary serve as serve-mix's generator child.
func TestMain(m *testing.M) {
	if os.Getenv(clientEnv) == "1" {
		if err := clientMain(os.Stdin, os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// runOnce runs one workload through the command's entry point and returns
// its stamp and result lines.
func runOnce(t *testing.T, workload string, seed int64, seconds float64, trace int) (stamp map[string]any, result map[string]any) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, workload, seed, seconds, trace, time.Now()); err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a stamp and a result line, got %q", workload, out.String())
	}
	var s struct {
		Stamp map[string]any `json:"stamp"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &s); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatal(err)
	}
	if result["correct"] != true || result["failed"].(float64) != 0 {
		t.Fatalf("%s trace=%d: output checks failed: %v", workload, trace, result)
	}
	return s.Stamp, result
}

// The Build-timing wrapper must keep the template's stability declaration,
// or the mapper leaves its compiled path for the cold QuickReject branch.
func TestTimedDataflowKeepsStructureStable(t *testing.T) {
	shape, spec := tilePoint()
	df := dataflows.TileFlowAttention(shape, spec)
	if !dataflows.IsStructureStable(df) {
		t.Fatal("the canonical template is not structure-stable")
	}
	if !dataflows.IsStructureStable(&timedDataflow{Dataflow: df}) {
		t.Fatal("timedDataflow hides StructureStable")
	}
}

// Every traced tile-mcts search compiles exactly once, as an untraced one
// does.
func TestTileSearchCompilesOnce(t *testing.T) {
	shape, spec := tilePoint()
	for i, seed := range tileSeeds(1)[:8] {
		df := &timedDataflow{Dataflow: dataflows.TileFlowAttention(shape, spec), spans: newTracer(), trace: int32(i)}
		c0 := core.CompileCount()
		if tileSearch(df, spec, seed) == nil {
			t.Fatal("no mapping found")
		}
		if n := core.CompileCount() - c0; n != 1 {
			t.Fatalf("seed %d: %d compiles per search, want 1", seed, n)
		}
		if df.builds != tileCandidates {
			t.Fatalf("seed %d: %d builds, want %d", seed, df.builds, tileCandidates)
		}
	}
	m := map[string]float64{}
	rc := &runCtx{window: 300 * time.Millisecond, spans: newTracer(), stamp: map[string]any{}}
	if _, _, err := tileTraced(rc, shape, spec, tileSeeds(1), newTileBests(), 1e-3, m); err != nil {
		t.Fatal(err)
	}
	if m["core.compiles_per_search"] != 1 {
		t.Fatalf("core.compiles_per_search = %v, want 1", m["core.compiles_per_search"])
	}
}

// Traced and untraced runs of one seed report identical best_cycles, and
// two runs of one seed repeat their input digests.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, wl := range []struct {
		name    string
		seconds float64
		digest  string
	}{
		{"tile-mcts", 0.6, "inputs_digest"},
		{"ga-search", 0.1, "inputs_digest"},
		{"serve-mix", 1.4, "stream_digest"},
	} {
		s0, _ := runOnce(t, wl.name, 3, wl.seconds, 0)
		s1, _ := runOnce(t, wl.name, 3, wl.seconds, 1)
		if s0["best_cycles"] != s1["best_cycles"] {
			t.Errorf("%s: best_cycles untraced %v, traced %v", wl.name, s0["best_cycles"], s1["best_cycles"])
		}
		if s0[wl.digest] != s1[wl.digest] {
			t.Errorf("%s: %s differs between runs of one seed", wl.name, wl.digest)
		}
	}
}

// The request stream is a function of the seed alone.
func TestStreamSeedDiscipline(t *testing.T) {
	cat, err := buildCatalog(5)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{200, 400}
	durs := []time.Duration{time.Second, time.Second}
	_, a := schedule(5, cat, rates, durs)
	_, b := schedule(5, cat, rates, durs)
	_, c := schedule(6, cat, rates, durs)
	if a != b {
		t.Fatalf("one seed gave two streams: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("two seeds gave one stream")
	}
}

// The write classes only ever carry fresh design points.
func TestWriteClassesAreUnique(t *testing.T) {
	cat, err := buildCatalog(1)
	if err != nil {
		t.Fatal(err)
	}
	rungs, _ := schedule(1, cat, []float64{3000}, []time.Duration{time.Second})
	seen := map[string]bool{}
	var counts [numClasses]int
	for _, it := range rungs[0].items {
		counts[it.class]++
		if it.class == classHot {
			continue
		}
		if seen[string(it.body)] {
			t.Fatalf("repeated %s request", classNames[it.class])
		}
		seen[string(it.body)] = true
	}
	for c, n := range counts {
		share := float64(n) / float64(len(rungs[0].items))
		if share < classShares[c]/2 || share > classShares[c]*2 {
			t.Errorf("class %s share %.3f, want about %.2f", classNames[c], share, classShares[c])
		}
	}
}

// BENCHMARK.json names exactly the metrics the command prints, with the
// same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		code   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.listed), len(c.code))
		}
		for i, d := range c.code {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), command %s (%s)", i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}

// A run whose generator lag is a large share of the latency it reports is
// invalid; a lag well below it is not.
func TestLagValidity(t *testing.T) {
	ok := []rungStats{{rate: 1000, p99: 5, lagP99: 1}, {rate: 2000, p99: 80, lagP99: 20}}
	if r := lagInvalid(ok); r != "" {
		t.Fatalf("valid ladder marked invalid: %s", r)
	}
	for _, bad := range [][]rungStats{
		{{rate: 1000, p99: 5, lagP99: 2}, {rate: 2000, p99: 80, lagP99: 1}},
		{{rate: 1000, p99: 5, lagP99: 1}, {rate: 2000, p99: 80, lagP99: 30}},
	} {
		if lagInvalid(bad) == "" {
			t.Errorf("ladder %+v not marked invalid", bad)
		}
	}
}

// The reference kernel is the same work in every run and allocates
// nothing, so the program's heap cannot change its time.
func TestRefKernelIsFixedAndAllocationFree(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	a.run()
	b.run()
	if a.sink != b.sink || a.sink == 0 {
		t.Fatalf("two kernels computed %v and %v", a.sink, b.sink)
	}
	if n := testing.AllocsPerRun(5, a.run); n != 0 {
		t.Fatalf("kernel run allocates %v objects", n)
	}
	s := startSampler()
	time.Sleep(3 * samplePeriod)
	s.close()
	now := time.Now()
	if ms := s.kernelMS(now.Add(-time.Minute), now); ms <= 0 || len(s.residentSet()) == 0 || s.cpuUsed() <= 0 {
		t.Fatalf("sampler: kernel %v ms, %d resident-set samples, %v CPU", ms, len(s.residentSet()), s.cpuUsed())
	}
}
