package serve_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// The canonical keys are persistent identifiers: the result cache, the
// compiled-Program cache, the fleet's shared memo tier and the warm-start
// checkpoint library all look entries up by them, so a renderer rewrite
// that changes a single byte of the canonical text silently orphans every
// stored entry. testdata/canonical_keys.golden pins the hex digest of each
// key family over a fixed point set; the file is written once and never
// regenerated, so any drift fails here.

const goldenKeysPath = "testdata/canonical_keys.golden"

// keyLines renders "label family=hex" lines for every golden point.
func keyLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(label, family, hex string) {
		lines = append(lines, label+" "+family+"="+hex)
	}
	// tree adds the mapping-dependent keys of one concrete tree.
	tree := func(label string, spec *arch.Spec, g *workload.Graph, root *core.Node, opts core.Options) {
		add(label, "evaluate", serve.EvaluateKey(spec, g, root, opts))
		add(label, "program", serve.ProgramKey(spec, g, root))
	}
	// point adds the mapping-independent keys of an architecture and graph.
	point := func(label string, spec *arch.Spec, g *workload.Graph, opts core.Options, seed int64) {
		add(label, "search", serve.SearchKey(spec, g, 8, 4, 10, 3, seed, opts))
		add(label, "warm", serve.WarmKey(spec, g))
		ts := &mapper.TreeSearch{G: g, Spec: spec, Opts: opts, TileRounds: int(seed % 50), Seed: seed}
		add(label, "fitness", ts.Fingerprint())
	}
	optsFor := func(i int) core.Options {
		return core.Options{SkipCapacityCheck: i&1 != 0, SkipPECheck: i&2 != 0, DisableRetention: i&4 != 0}
	}

	// Catalog templates at their default factors, on edge and cloud.
	catalog := []struct {
		wl  string
		dfs []string
	}{
		{"attention:Bert-S", []string{"Layerwise", "Uni-pipe", "FLAT-MGran", "FLAT-BGran", "FLAT-HGran", "FLAT-RGran", "Chimera", "TileFlow"}},
		{"attention:ViT/16-B", []string{"Layerwise", "FLAT-RGran", "Chimera", "TileFlow"}},
		{"conv:CC1", []string{"Layerwise", "Fused-Layer", "ISOS", "TileFlow"}},
		{"conv:CC3", []string{"Layerwise", "TileFlow"}},
	}
	i := 0
	for _, archName := range []string{"edge", "cloud"} {
		spec, err := serve.PickArch(archName)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range catalog {
			g, err := serve.PickGraph(c.wl)
			if err != nil {
				t.Fatal(err)
			}
			point(archName+" "+c.wl, spec, g, optsFor(i), int64(i))
			for _, dfName := range c.dfs {
				i++
				df, err := serve.PickDataflow(dfName, c.wl, spec)
				if err != nil {
					t.Fatal(err)
				}
				label := archName + " " + c.wl + " " + dfName
				add(label, "tuned", serve.TunedKey(spec, df.Graph(), dfName, 20+i, int64(i), optsFor(i)))
				root, err := df.Build(df.DefaultFactors())
				if err != nil {
					add(label, "build", "error")
					continue
				}
				tree(label, spec, df.Graph(), root, optsFor(i))
			}
		}
	}

	// A notation point posted with an inline workload_spec.
	{
		spec := arch.Edge()
		g, err := workload.ParseGraph(workload.CanonicalGraph(workload.Matmul(8, 8, 8)))
		if err != nil {
			t.Fatal(err)
		}
		root, err := notation.Parse("leaf mm = op mm { Sp(m:2), m:4, n:8, k:8 }\ntile root @L2 = { m:1 } (mm)\n", g)
		if err != nil {
			t.Fatal(err)
		}
		tree("notation workload_spec", spec, g, root, core.Options{})
		point("notation workload_spec", spec, g, core.Options{}, 7)
	}

	// A YAML config with a direct-access edge and a sparse tensor.
	{
		cfg, err := yamlfe.LoadStrict(goldenYAML)
		if err != nil {
			t.Fatal(err)
		}
		tree("yaml direct+sparse", cfg.Spec, cfg.Graph, cfg.Root, core.Options{DisableRetention: true})
		point("yaml direct+sparse", cfg.Spec, cfg.Graph, core.Options{}, 11)
	}

	// A hand-built architecture and graph for the renderers' rarer
	// branches: byte capacities that are not KB multiples, fractional and
	// huge bandwidths, strided/offset/negative/constant index terms,
	// awkward densities, and non-Seq bindings.
	{
		spec := arch.Edge()
		spec.Name = "odd"
		spec.FreqGHz = 0.7
		spec.Levels[0].CapacityBytes = 1000
		spec.Levels[1].BandwidthGBs = 12.5
		spec.Levels[len(spec.Levels)-1].BandwidthGBs = 1e21
		spec.DirectAccess = [][2]int{{0, len(spec.Levels) - 1}, {1, len(spec.Levels) - 1}}
		g := oddGraph(t)
		p, q := g.Ops[0], g.Ops[1]
		leafP := core.Leaf("P", p, core.S("i", 2), core.T("j", 4), core.T("r", 3))
		leafQ := core.Leaf("Q", q, core.T("i", 8))
		mid := core.Tile("mid", 1, core.Pipe, []core.Loop{core.T("i", 4)}, leafP, leafQ)
		root := core.Tile("root", len(spec.Levels)-1, core.Shar, nil, mid)
		for j := 0; j < 8; j++ {
			tree(fmt.Sprintf("odd opts%d", j), spec, g, root, optsFor(j))
		}
		point("odd", spec, g, optsFor(5), -3)
		add("odd", "tuned", serve.TunedKey(spec, g, "a b|c", -1, math.MinInt64, optsFor(6)))
		ts := &mapper.TreeSearch{G: g, Spec: spec, Seed: 9, Narrow: func(dataflows.Dataflow) map[string][]int { return nil }}
		add("odd narrow", "fitness", ts.Fingerprint())
	}

	// Generated design points: two tilings of one structure per seed.
	for seed := int64(1); seed <= 20; seed++ {
		p := conformance.Generate(seed)
		label := fmt.Sprintf("conformance %d", seed)
		tree(label, p.Spec, p.Graph, p.Root, p.Opts)
		tree(label+" alt", p.Spec, p.Graph, p.Alt, p.Opts)
		point(label, p.Spec, p.Graph, p.Opts, seed)
	}
	return lines
}

// oddGraph is a two-operator graph whose accesses use every Index form the
// canonical dump distinguishes.
func oddGraph(t *testing.T) *workload.Graph {
	t.Helper()
	p := &workload.Operator{
		Name: "p",
		Kind: workload.KindMAC,
		Dims: []workload.Dim{{Name: "i", Size: 8}, {Name: "j", Size: 4}, {Name: "r", Size: 3}},
		Reads: []workload.Access{
			{Tensor: "X", Index: []workload.Index{
				{Terms: []workload.Term{{Dim: "i", Coef: 4}, {Dim: "j", Coef: 1}}, Offset: 2},
				{Terms: []workload.Term{{Dim: "r", Coef: -2}}, Offset: 5},
			}},
			{Tensor: "W", Index: []workload.Index{workload.I("r"), {Offset: 0}}},
		},
		Write: workload.Access{Tensor: "Y", Index: []workload.Index{workload.I("i"), workload.I("j")}},
	}
	q := &workload.Operator{
		Name:  "q",
		Kind:  workload.KindExp,
		Dims:  []workload.Dim{{Name: "i", Size: 8}},
		Reads: []workload.Access{{Tensor: "Y", Index: []workload.Index{workload.I("i"), {Offset: 3}}}},
		Write: workload.Access{Tensor: "Z", Index: []workload.Index{workload.I("i")}},
	}
	g, err := workload.NewGraph("odd graph", 2, p, q)
	if err != nil {
		t.Fatal(err)
	}
	for tensor, d := range map[string]float64{"X": 1.0 / 3, "W": 0.125, "Y": 1e-7} {
		if err := g.SetDensity(tensor, d); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

const goldenYAML = `architecture:
  name: golden
  attributes:
    freq_ghz: 1.5
    word_bits: 16
    direct_access: [[0, 2]]
  subtree:
    - name: system
      local:
        - name: DRAM
          class: DRAM
          attributes: {bandwidth_gbs: 128}
      subtree:
        - name: chip
          local:
            - name: L2
              attributes: {capacity: 4MB, bandwidth_gbs: 512}
          subtree:
            - name: pe[0..63]
              local:
                - name: L1
                  attributes:
                    depth: 8192
                    block-size: 4
                    word-bits: 16
                    read_bandwidth: 4
                - name: mac
                  class: intmac
problem:
  name: matmul
  dimensions: m k n
  instance: {m: 64, k: 64, n: 64}
  densities: {A: 0.3, B: 0.55}
  ops:
    - name: mm
      data-spaces:
        - name: A
          projection: [[[m]], [[k]]]
        - name: B
          projection: [[[k]], [[n]]]
        - name: C
          projection: [[[m]], [[n]]]
          read-write: true
      ins: A B
      out: C
mapping:
  node-type: Tile
  name: root
  target: DRAM
  type: temporal
  factors: m=4
  subtree:
    - node-type: Tile
      name: l2
      target: L2
      factors: n=8
      subtree:
        - node-type: Op
          name: mm
          factors: s:m=8 s:n=8 m=2 k=64
`

// TestCanonicalKeysGolden pins every canonical key family — evaluate,
// program, tuned, search, warm-start, and the mapper's fitness prefix —
// byte for byte.
func TestCanonicalKeysGolden(t *testing.T) {
	got := keyLines(t)
	raw, err := os.ReadFile(goldenKeysPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d key lines, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing lines in all", bad)
	}
}
