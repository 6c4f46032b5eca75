// Package mapper implements TileFlow's design-space exploration (Sec 6): a
// Monte Carlo Tree Search over tiling factors, and a genetic algorithm over
// compute ordering and resource binding whose individuals are tuned by the
// MCTS — the combined workflow of Fig 7a.
package mapper

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
)

// Evaluation is one evaluated mapping: a concrete factor assignment and its
// modeled performance.
type Evaluation struct {
	Factors map[string]int
	Cycles  float64
	Result  *core.Result
}

// TileSearch tunes the tiling factors of one dataflow template with MCTS
// (Sec 6: "for each step, it selects one loop and assigns it a tiling
// factor within its trip counts ... the results are feedbacks to MCTS to
// update upper confidence bounds").
type TileSearch struct {
	Dataflow dataflows.Dataflow
	Spec     *arch.Spec
	Opts     core.Options
	// Rounds is the number of MCTS iterations (each evaluates one
	// complete mapping). The paper samples ~200 tiling choices per round.
	Rounds int
	// Seed makes the search deterministic.
	Seed int64
	// Explore is the UCB exploration constant (default √2).
	Explore float64
	// Domains, when set, restricts each factor's candidate list to the
	// given values before the search starts — the narrowed per-factor
	// domains of the search-space analyzer (spaceck.Report.AllowedMap),
	// passed as plain data so the mapper never depends on the analyzer.
	// Keys absent from the map keep their full divisor list; a key mapped
	// to an empty (or disjoint) set proves the space empty and the search
	// returns immediately. Domains must be sound — only values no
	// feasible point uses may be missing — or the search will skip valid
	// mappings.
	Domains map[string][]int

	// prog is the compiled program of the template's structure, reused
	// across rollouts: each candidate pays only a tiling re-bind plus the
	// evaluate half of the pipeline instead of a full compile. delta
	// carries the incremental re-evaluation state across rollouts —
	// successive MCTS candidates differ by a handful of factors, so most of
	// the tree's analysis is replayed from the cache instead of recomputed.
	// bound is the one tree a Binder template's candidates are bound into.
	// All three belong to compiledDF and compiledSpec; a run with another
	// Dataflow or Spec drops them.
	prog         *core.Program
	delta        *core.DeltaState
	bound        *core.Node
	compiledDF   dataflows.Dataflow
	compiledSpec *arch.Spec

	// Reusable per-round buffers (one RunContext at a time per TileSearch,
	// which prog/delta already require). vec is a Binder's factor vector,
	// factors a Build-only template's factor map.
	selBuf  []int
	pathBuf []*mctsNode
	assign  []int
	vec     []int
	factors map[string]int
}

// mctsNode is one node of the search tree: a prefix of factor decisions.
// children is indexed by choice position and allocated on first use (leaf
// nodes never allocate one); a nil entry is an unexpanded choice.
type mctsNode struct {
	visits   int
	total    float64 // sum of rewards
	children []*mctsNode
}

func newMctsNode() *mctsNode { return &mctsNode{} }

// ensureChildren sizes the node's child slice for its choice list.
func (n *mctsNode) ensureChildren(k int) {
	if n.children == nil {
		n.children = make([]*mctsNode, k)
	}
}

// Run searches for the factor assignment minimizing cycles. It returns the
// best evaluation found and the best-so-far cycle count after every round
// (the Fig 9a convergence trace). When no valid mapping exists it returns
// nil with a nil error.
func (s *TileSearch) Run() (*Evaluation, []float64) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the search stops at the next round
// boundary once ctx is done and returns the best evaluation found so far
// (MCTS is an anytime algorithm), so callers can budget wall time.
//
// A Binder template's candidates are decoded into one reused factor
// vector and bound into one tree per search; a factor map is built only
// for a new best-so-far. Other templates build a tree per candidate from
// a factor map.
func (s *TileSearch) RunContext(ctx context.Context) (*Evaluation, []float64) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !sameDataflow(s.compiledDF, s.Dataflow) || s.compiledSpec != s.Spec {
		s.prog, s.delta, s.bound = nil, nil, nil
		s.compiledDF, s.compiledSpec = s.Dataflow, s.Spec
	}
	binder, _ := s.Dataflow.(dataflows.Binder)
	specs := s.Dataflow.Factors()
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 200
	}
	explore := s.Explore
	if explore == 0 {
		explore = math.Sqrt2
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Choice lists per factor, in a fixed decision order, narrowed to the
	// analyzer's domains when the caller provides them: MCTS never expands
	// a pruned value, so the whole subtree under it is skipped rather than
	// sampled and rejected.
	choices := make([][]int, len(specs))
	for i, f := range specs {
		choices[i] = f.Choices()
		if dom, ok := s.Domains[f.Key]; ok {
			choices[i] = intersectChoices(choices[i], dom)
			if len(choices[i]) == 0 {
				// The analyzer proved every value of this factor infeasible:
				// the space has no valid point, matching "no valid mapping"
				// (nil best, empty trace).
				return nil, nil
			}
		}
	}
	if cap(s.vec) < len(specs) {
		s.vec = make([]int, len(specs))
	}
	s.vec = s.vec[:len(specs)]
	if binder == nil && s.factors == nil {
		s.factors = make(map[string]int, len(specs))
	}

	root := newMctsNode()
	var best *Evaluation
	trace := make([]float64, 0, rounds)
	// worst tracks the largest finite cycle count seen, normalizing
	// rewards into (0, 1].
	worst := 0.0

	// Seed with the template's default factors so the search never
	// returns something worse than the untuned mapping.
	def := s.Dataflow.DefaultFactors()
	for i, f := range specs {
		s.vec[i] = def[f.Key]
	}
	if res := s.evaluate(ctx, binder, def); res != nil {
		best = &Evaluation{Factors: def, Cycles: res.Cycles, Result: res.Clone()}
		worst = res.Cycles
	}

	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			break
		}
		// Selection + expansion.
		node := root
		path := append(s.pathBuf[:0], root)
		assign := s.assign[:0]
		depth := 0
		for depth < len(specs) {
			ci := s.selectChild(node, choices[depth], explore, rng)
			child := node.children[ci]
			if child == nil {
				child = newMctsNode()
				node.children[ci] = child
				assign = append(assign, ci)
				depth++
				path = append(path, child)
				node = child
				break // expansion: roll out from here
			}
			assign = append(assign, ci)
			depth++
			path = append(path, child)
			node = child
		}
		// Rollout: random completion.
		for d := depth; d < len(specs); d++ {
			assign = append(assign, rng.Intn(len(choices[d])))
		}
		s.pathBuf, s.assign = path, assign
		if binder != nil {
			for i := range specs {
				s.vec[i] = choices[i][assign[i]]
			}
		} else {
			clear(s.factors)
			for i, f := range specs {
				s.factors[f.Key] = choices[i][assign[i]]
			}
		}
		res := s.evaluate(ctx, binder, s.factors)
		reward := 0.0
		if res != nil {
			if res.Cycles > worst {
				worst = res.Cycles
			}
			reward = 1.0 / (1.0 + res.Cycles/math.Max(1, worst))
			if best == nil || res.Cycles < best.Cycles {
				// Detach from the delta arena and the reused buffers.
				f := make(map[string]int, len(specs))
				for i, spec := range specs {
					f[spec.Key] = choices[i][assign[i]]
				}
				best = &Evaluation{Factors: f, Cycles: res.Cycles, Result: res.Clone()}
			}
		}
		for _, n := range path {
			n.visits++
			n.total += reward
		}
		if best != nil {
			trace = append(trace, best.Cycles)
		} else {
			trace = append(trace, math.Inf(1))
		}
	}
	return best, trace
}

// sameDataflow reports whether a and b are one template value. A template
// whose dynamic type is not comparable always counts as a new one.
func sameDataflow(a, b dataflows.Dataflow) bool {
	ta := reflect.TypeOf(a)
	return ta != nil && ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// selectChild applies UCB1 over the expanded children, preferring an
// unexpanded choice when one exists.
func (s *TileSearch) selectChild(n *mctsNode, choices []int, explore float64, rng *rand.Rand) int {
	n.ensureChildren(len(choices))
	unexpanded := s.selBuf[:0]
	for i := range choices {
		if n.children[i] == nil {
			unexpanded = append(unexpanded, i)
		}
	}
	s.selBuf = unexpanded
	if len(unexpanded) > 0 {
		return unexpanded[rng.Intn(len(unexpanded))]
	}
	bestIdx, bestScore := 0, math.Inf(-1)
	// Ascending index order (what the map form's sorted iteration gave),
	// for reproducibility.
	for i, c := range n.children {
		if c == nil {
			continue
		}
		score := c.total/float64(c.visits) +
			explore*math.Sqrt(math.Log(float64(n.visits+1))/float64(c.visits))
		if score > bestScore {
			bestIdx, bestScore = i, score
		}
	}
	return bestIdx
}

// evaluate binds (through b, from s.vec) or builds (from factors) one
// candidate and evaluates it, returning nil for an invalid one. The
// Result aliases the search's delta arena and is valid only until the
// next candidate; RunContext clones it when it becomes the best-so-far.
func (s *TileSearch) evaluate(ctx context.Context, b dataflows.Binder, factors map[string]int) *core.Result {
	var root *core.Node
	var err error
	if b != nil {
		if root, err = b.Bind(s.bound, s.vec); err == nil {
			s.bound = root
		}
	} else {
		root, err = s.Dataflow.Build(factors)
	}
	if err != nil {
		return nil
	}
	res, err := s.evaluateTree(ctx, root)
	if err != nil {
		return nil
	}
	return res
}

// evaluateTree evaluates one candidate tree. The template is compiled once
// and every further candidate re-binds into the incremental evaluator,
// paying only for the subtrees whose loop nests changed since the previous
// rollout. A candidate whose tree shape differs from the compiled one
// recompiles, so templates whose structure varies with their factors stay
// correct.
func (s *TileSearch) evaluateTree(ctx context.Context, root *core.Node) (*core.Result, error) {
	if s.prog != nil {
		res, err := s.prog.EvaluateDelta(ctx, s.delta, root, s.Opts)
		if !errors.Is(err, core.ErrStructureMismatch) {
			// Success, or a genuinely invalid tiling of the compiled
			// structure: a fresh compile would reproduce the identical
			// validation error (the delta pass is pinned to the full pass's
			// first error), so return it without paying for one.
			return res, err
		}
	}
	p, err := core.Compile(root, s.Dataflow.Graph(), s.Spec)
	if err != nil {
		return nil, err
	}
	s.prog = p
	s.delta = p.NewDelta(s.Opts)
	return s.prog.EvaluateDelta(ctx, s.delta, root, s.Opts)
}

// intersectChoices keeps the values of choices present in dom, preserving
// the choice order so the narrowed search stays deterministic.
func intersectChoices(choices, dom []int) []int {
	set := make(map[int]bool, len(dom))
	for _, v := range dom {
		set[v] = true
	}
	out := make([]int, 0, len(choices))
	for _, v := range choices {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// Tune is the convenience entry point the experiments use: it MCTS-tunes a
// dataflow's factors and returns the best evaluation. The search seeds
// itself with the default factors, so a nil result means the defaults are
// invalid too.
func Tune(df dataflows.Dataflow, spec *arch.Spec, opts core.Options, rounds int, seed int64) *Evaluation {
	return TuneContext(context.Background(), df, spec, opts, rounds, seed)
}

// TuneContext is Tune with cancellation, returning the best evaluation
// found before ctx expired (or nil when nothing valid was seen).
func TuneContext(ctx context.Context, df dataflows.Dataflow, spec *arch.Spec, opts core.Options, rounds int, seed int64) *Evaluation {
	s := &TileSearch{Dataflow: df, Spec: spec, Opts: opts, Rounds: rounds, Seed: seed}
	best, _ := s.RunContext(ctx)
	return best
}
