package mapper

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

func TestTileSearchImprovesOverDefaults(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	df := dataflows.TileFlowAttention(shape, spec)

	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.Evaluate(root, df.Graph(), spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	s := &TileSearch{Dataflow: df, Spec: spec, Rounds: 300, Seed: 1}
	best, trace := s.Run()
	if best == nil {
		t.Fatal("search found no valid mapping")
	}
	if len(trace) != 300 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Trace must be monotonically non-increasing (best-so-far).
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1] {
			t.Fatalf("trace not monotone at %d: %v > %v", i, trace[i], trace[i-1])
		}
	}
	if best.Cycles > def.Cycles {
		t.Errorf("search best %v worse than defaults %v", best.Cycles, def.Cycles)
	}
	t.Logf("default=%.3g tuned=%.3g factors=%v", def.Cycles, best.Cycles, best.Factors)
}

func TestTileSearchDeterministic(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	run := func() float64 {
		df := dataflows.FLATRGran(shape, spec)
		s := &TileSearch{Dataflow: df, Spec: spec, Rounds: 100, Seed: 42}
		best, _ := s.Run()
		if best == nil {
			t.Fatal("no valid mapping")
		}
		return best.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

// coldOracle replays a search's recorded candidates — every factor map it
// built, in order, the template-default seed first — through cold
// core.Evaluate, and rebuilds the best evaluation and the best-so-far trace
// the search must have reported had each candidate been evaluated from
// scratch.
func coldOracle(df dataflows.Dataflow, spec *arch.Spec, built []map[string]int) (*Evaluation, []float64) {
	var best *Evaluation
	trace := make([]float64, 0, len(built))
	for i, f := range built {
		if root, err := df.Build(f); err == nil {
			if res, err := core.Evaluate(root, df.Graph(), spec, core.Options{}); err == nil && (best == nil || res.Cycles < best.Cycles) {
				best = &Evaluation{Factors: f, Cycles: res.Cycles, Result: res}
			}
		}
		if i == 0 {
			continue // the seed precedes the first round
		}
		if best != nil {
			trace = append(trace, best.Cycles)
		} else {
			trace = append(trace, math.Inf(1))
		}
	}
	return best, trace
}

// checkAgainstColdOracle runs a recorded search and requires its best
// evaluation and trace to equal the cold oracle's over the same candidates.
// It returns the candidates and how many times the search compiled.
func checkAgainstColdOracle(t *testing.T, df dataflows.Dataflow, spec *arch.Spec, rounds int, seed int64) ([]map[string]int, int64) {
	t.Helper()
	rec := &recordingDataflow{Dataflow: df}
	s := &TileSearch{Dataflow: rec, Spec: spec, Rounds: rounds, Seed: seed}
	c0 := core.CompileCount()
	best, trace := s.Run()
	compiles := core.CompileCount() - c0
	if best == nil {
		t.Fatal("no valid mapping")
	}
	if len(rec.built) != rounds+1 {
		t.Fatalf("search built %d candidates, want %d (seed + one per round)", len(rec.built), rounds+1)
	}
	want, wantTrace := coldOracle(df, spec, rec.built)
	if !reflect.DeepEqual(best, want) {
		t.Errorf("search best %v (%v cycles), cold oracle %v (%v cycles)", best.Factors, best.Cycles, want.Factors, want.Cycles)
	}
	if !reflect.DeepEqual(trace, wantTrace) {
		t.Errorf("search trace differs from the cold oracle's")
	}
	return rec.built, compiles
}

// TestTileSearchMatchesColdOracle: the compiled delta path (one Compile,
// per-rollout re-binds into one DeltaState) reports exactly the best
// evaluation and trace that cold evaluation of the same candidates gives.
func TestTileSearchMatchesColdOracle(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	_, compiles := checkAgainstColdOracle(t, dataflows.FLATRGran(shape, spec), spec, 120, 7)
	if compiles != 1 {
		t.Errorf("search compiled %d times, want 1", compiles)
	}
}

// shapeShiftTemplate is narrowTemplate with a tree shape that depends on a
// factor: b > 1 inserts an extra spatial tile above the leaf, so
// successive candidates switch between two compiled structures.
type shapeShiftTemplate struct{ narrowTemplate }

func (t *shapeShiftTemplate) Build(f map[string]int) (*core.Node, error) {
	a, b := f["a"], f["b"]
	if a < 1 || b < 1 || t.i%(a*b) != 0 {
		return nil, fmt.Errorf("a=%d, b=%d do not tile %d", a, b, t.i)
	}
	inner := core.Leaf("lf", t.g.Op("A"), core.T("i", t.i/(a*b)), core.T("k", 8))
	if b > 1 {
		inner = core.Tile("sp", 0, core.Seq, []core.Loop{core.S("i", b)}, inner)
	}
	t1 := core.Tile("t1", 1, core.Seq, nil, inner)
	return core.Tile("r", 2, core.Seq, []core.Loop{core.T("i", a)}, t1), nil
}

// TestTileSearchRecompilesOnShapeChange: a template whose structure varies
// with its factors goes through the ErrStructureMismatch recompile path,
// and the search still matches the cold oracle exactly.
func TestTileSearchRecompilesOnShapeChange(t *testing.T) {
	df := &shapeShiftTemplate{narrowTemplate{g: narrowGraph(16, 8), i: 16}}
	built, compiles := checkAgainstColdOracle(t, df, narrowSpec(), 60, 5)
	// The search compiles its first buildable candidate, then recompiles
	// exactly when a buildable candidate's shape differs from the last one.
	want, shape := int64(0), 0
	for _, f := range built {
		if _, err := df.Build(f); err != nil {
			continue
		}
		s := 1
		if f["b"] > 1 {
			s = 2
		}
		if s != shape {
			want++
			shape = s
		}
	}
	if want < 3 {
		t.Fatalf("only %d structure runs among the candidates; the test needs shape changes", want)
	}
	if compiles != want {
		t.Errorf("search compiled %d times, want %d (once per structure change)", compiles, want)
	}
}

// TestTileSearchRerunDropsStaleState: a TileSearch run again after its Spec
// or Dataflow changed must not evaluate against the program, delta state
// or bound tree of the previous run; it must equal a fresh search.
func TestTileSearchRerunDropsStaleState(t *testing.T) {
	vit, _ := workload.AttentionShapeByName("ViT/16-B")
	bert, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	slow := spec.Clone()
	slow.Levels[slow.DRAMLevel()].BandwidthGBs = 8
	df := dataflows.TileFlowAttention(vit, spec)
	for _, tc := range []struct {
		name string
		df   dataflows.Dataflow
		spec *arch.Spec
	}{
		{"spec", df, slow},
		{"dataflow", dataflows.TileFlowAttention(bert, spec), spec},
	} {
		reused := &TileSearch{Dataflow: df, Spec: spec, Rounds: 50, Seed: 3}
		if best, _ := reused.Run(); best == nil {
			t.Fatal("no valid mapping")
		}
		reused.Dataflow, reused.Spec = tc.df, tc.spec
		got, gotTrace := reused.Run()
		fresh := &TileSearch{Dataflow: tc.df, Spec: tc.spec, Rounds: 50, Seed: 3}
		want, wantTrace := fresh.Run()
		if got == nil || want == nil {
			t.Fatalf("%s: no valid mapping (reused %v, fresh %v)", tc.name, got, want)
		}
		if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Factors, want.Factors) || !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Errorf("%s changed: reused search %v cycles, fresh search %v cycles", tc.name, got.Cycles, want.Cycles)
		}
	}
}
