package conformance

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
)

// defaultPoints is the acceptance floor from the conformance plan; raise it
// locally with TILEFLOW_CONFORMANCE_POINTS for longer soaks.
const defaultPoints = 500

func pointBudget() int {
	if s := os.Getenv("TILEFLOW_CONFORMANCE_POINTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return defaultPoints
}

// TestConformance is the differential harness: every generated point runs
// through all the evaluation routes (cold, compiled, re-bound, delta,
// notation, HTTP service, YAML config) and through the slice-enumeration
// oracle. Any divergence is minimized and written out as a textual
// reproducer.
func TestConformance(t *testing.T) {
	n := pointBudget()
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := hs.Client()

	bindings := map[core.Binding]int{}
	for seed := int64(1); seed <= int64(n); seed++ {
		p := Generate(seed)
		countInterTile(p.Root, bindings)
		if err := RunPoint(p, hs.URL, client); err != nil {
			failWithRepro(t, p, err, func(c *Point) bool {
				return RunPoint(c, hs.URL, client) != nil
			})
		}
		if err := CheckOracle(p); err != nil {
			failWithRepro(t, p, err, func(c *Point) bool {
				return CheckOracle(c) != nil
			})
		}
	}
	// Acceptance: the oracle must have exercised each inter-tile binding on
	// at least 50 generated points.
	for _, b := range []core.Binding{core.Seq, core.Shar, core.Para, core.Pipe} {
		if bindings[b] < 50 {
			t.Errorf("binding %s covered by %d points, want >= 50 (raise the generator's binding diversity)", b, bindings[b])
		}
	}
}

// countInterTile counts each binding once per point when it appears on a
// node with at least two children — the inter-tile position the paper's
// binding semantics are about.
func countInterTile(root *core.Node, counts map[core.Binding]int) {
	seen := map[core.Binding]bool{}
	root.Walk(func(n *core.Node) {
		if len(n.Children) >= 2 {
			seen[n.Binding] = true
		}
	})
	for b := range seen {
		counts[b]++
	}
}

func failWithRepro(t *testing.T, p *Point, err error, failing func(*Point) bool) {
	t.Helper()
	min := Minimize(p, failing)
	repro := min.Reproducer()
	if dir := os.Getenv("TILEFLOW_REPRO_DIR"); dir != "" {
		if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
			path := filepath.Join(dir, fmt.Sprintf("seed%d.txt", p.Seed))
			if wErr := os.WriteFile(path, []byte(repro), 0o644); wErr == nil {
				t.Logf("reproducer written to %s", path)
			}
		}
	}
	t.Fatalf("divergence: %v\nminimized reproducer:\n%s", err, repro)
}

// TestGeneratorDeterministic pins Generate as a pure function of its seed:
// the textual renderings of arch, workload and both mappings must be
// identical across calls, or printed seeds would not reproduce failures.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a, b := Generate(seed), Generate(seed)
		if arch.FormatSpec(a.Spec) != arch.FormatSpec(b.Spec) {
			t.Fatalf("seed %d: arch differs between calls", seed)
		}
		if workload.CanonicalGraph(a.Graph) != workload.CanonicalGraph(b.Graph) {
			t.Fatalf("seed %d: workload differs between calls", seed)
		}
		if notation.Print(a.Root) != notation.Print(b.Root) {
			t.Fatalf("seed %d: root mapping differs between calls", seed)
		}
		if notation.Print(a.Alt) != notation.Print(b.Alt) {
			t.Fatalf("seed %d: alt mapping differs between calls", seed)
		}
	}
}

// TestGeneratorExactTilings checks the generator invariant the oracle
// relies on: along every root-to-leaf path, the loop extents over each of
// an operator's dims multiply exactly to the dim size.
func TestGeneratorExactTilings(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		p := Generate(seed)
		p.Root.Walk(func(n *core.Node) {
			if !n.IsLeaf() {
				return
			}
			for _, d := range n.Op.Dims {
				prod := pathProduct(p.Root, n, d.Name)
				if prod != d.Size {
					t.Fatalf("seed %d: leaf %s dim %s: path product %d, size %d\n%s",
						seed, n.Name, d.Name, prod, d.Size, notation.Print(p.Root))
				}
			}
		})
	}
}

func pathProduct(root, leaf *core.Node, dim string) int {
	parent := map[*core.Node]*core.Node{}
	root.Walk(func(n *core.Node) {
		for _, c := range n.Children {
			parent[c] = n
		}
	})
	prod := 1
	for m := leaf; m != nil; m = parent[m] {
		prod *= m.DimExtent(dim)
	}
	return prod
}

// TestMinimizerShrinks feeds the minimizer an always-failing predicate and
// checks it reaches a strictly simpler, still-valid point.
func TestMinimizerShrinks(t *testing.T) {
	p := Generate(3)
	valid := func(c *Point) bool {
		_, err := core.Evaluate(c.Root, c.Graph, c.Spec, c.Opts)
		return err == nil
	}
	if !valid(p) {
		t.Fatalf("seed point invalid before minimization")
	}
	min := Minimize(p, valid) // "failing" = still evaluates, so it shrinks maximally
	if !valid(min) {
		t.Fatalf("minimized point no longer evaluates:\n%s", min.Reproducer())
	}
	if size(min.Root) > size(p.Root) {
		t.Fatalf("minimizer grew the tree: %d -> %d loops", size(p.Root), size(min.Root))
	}
	if err := RunPoint(min, "", http.DefaultClient); err != nil {
		t.Fatalf("minimized point diverges across local routes: %v", err)
	}
}

func size(root *core.Node) int {
	loops := 0
	root.Walk(func(n *core.Node) { loops += len(n.Loops) })
	return loops
}
