package core

import (
	"repro/internal/arch"
	"repro/internal/workload"
)

// Static analysis: every rejection Compile and Evaluate can produce,
// re-run as a collecting pass that needs no Program and no evaluation.
// Each rule here is an exact port of the corresponding fail-fast check —
// same predicate, same error message — which gives the two properties the
// callers rely on:
//
//   - no false clean: any mapping Compile/Evaluate rejects trips at least
//     one rule (the first collected violation carries the very error the
//     pipeline would have returned);
//   - no false positive: a mapping with zero violations compiles and
//     passes every structural, tiling and resource check, so mappers may
//     prune on violations without changing search results on valid points.
//
// The capacity rule is the only one needing the compiled access-group
// tables; QuickReject therefore skips it (statically-capacity-bound points
// fall through to full evaluation), while AnalyzeStatic builds the tree
// tables — but never a Program — and checks it too.

// Rule keys identify the static rules. They are stable: internal/check maps
// them to public diagnostic codes.
const (
	RuleArch          = "arch-spec"        // architecture spec invalid
	RuleLeafChildren  = "leaf-children"    // leaf tile has children
	RuleDupOp         = "dup-op"           // operator appears in two leaves
	RuleInteriorEmpty = "interior-empty"   // interior node without children
	RuleLevelOrder    = "level-order"      // child level above its parent
	RuleOpNoLeaf      = "op-no-leaf"       // operator has no leaf tile
	RuleLevelRange    = "level-range"      // node level outside architecture
	RuleCoverage      = "tiling-coverage"  // loop extents do not tile a dim exactly
	RuleLoopExtent    = "loop-extent"      // loop extent < 1
	RuleLoopDim       = "loop-dim"         // loop over a dim foreign to the subtree
	RulePEBudget      = "pe-budget"        // spatial fanout exceeds the PE array
	RuleUnitUsage     = "unit-usage"       // level instance occupancy exceeded
	RuleCapacity      = "capacity"         // per-instance footprint over buffer capacity
)

// Violation is one statically detected problem: a rule key plus enough
// locus (node, operator, dim, loop index, level) for a front-end to point
// at the offending token, and the exact error the Compile/Evaluate
// pipeline would have produced (errors.Is-matching ErrInvalidMapping or
// ErrInfeasible).
type Violation struct {
	Rule string
	Node string // tile name, "" for graph- or arch-level rules
	Op   string // operator name, when the rule concerns one
	Dim  string // dimension name, when the rule concerns one
	Loop int    // index into the node's Loops, -1 otherwise
	Lvl  int    // memory level, -1 otherwise
	Err  error
}

// Infeasible reports whether the violation is a resource limit
// (ErrInfeasible) rather than a structural error (ErrInvalidMapping).
func (v Violation) Infeasible() bool { return isMark(v.Err, ErrInfeasible) }

func isMark(err, mark error) bool {
	if err == nil {
		return false
	}
	type iser interface{ Is(error) bool }
	if m, ok := err.(iser); ok {
		return m.Is(mark)
	}
	return err == mark
}

func violation(rule string, err error) Violation {
	return Violation{Rule: rule, Loop: -1, Lvl: -1, Err: err}
}

// AnalyzeStatic runs every static legality and resource rule over the tree
// and returns all violations, in the order the fail-fast pipeline would
// encounter them — so for any rejected mapping, the first violation's Err
// has the same text Compile/Evaluate would return (capacity aside when
// structural errors precede it). It never allocates a Program; the only
// compiled state it builds is the tree's own index tables.
func AnalyzeStatic(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) []Violation {
	var vs []Violation
	if err := spec.Validate(); err != nil {
		vs = append(vs, violation(RuleArch, err))
		return vs // no level geometry to check against
	}
	vs = append(vs, collectStructural(root)...)
	if len(vs) > 0 {
		// The tree cannot be indexed; graph-level rules still apply.
		leafOf := leafOperators(root)
		for _, op := range g.Ops {
			if leafOf[op] == nil {
				v := violation(RuleOpNoLeaf, invalidf("core: operator %q has no leaf tile in the tree", op.Name))
				v.Op = op.Name
				vs = append(vs, v)
			}
		}
		return vs
	}
	t, err := buildTree(root, g)
	if err != nil {
		// Unreachable when collectStructural mirrors buildTree; kept as a
		// safety net so a drift bug degrades to a reported violation
		// instead of a false clean.
		return append(vs, violation(RuleLevelOrder, err))
	}

	// validateStructure, collecting.
	levelsOK := true
	for i, op := range g.Ops {
		if t.st.leafOf[i] < 0 {
			v := violation(RuleOpNoLeaf, invalidf("core: operator %q has no leaf tile in the tree", op.Name))
			v.Op = op.Name
			vs = append(vs, v)
		}
	}
	for _, n := range t.nodeSet {
		if n.Level < 0 || n.Level >= spec.NumLevels() {
			v := violation(RuleLevelRange, invalidf("core: node %q level %d outside architecture with %d levels", n.Name, n.Level, spec.NumLevels()))
			v.Node = n.Name
			vs = append(vs, v)
			levelsOK = false
		}
	}

	// validateTiling, collecting.
	for i, op := range g.Ops {
		leafID := t.st.leafOf[i]
		if leafID < 0 {
			continue // reported above
		}
		for _, d := range op.Dims {
			if cov := t.fullCoverage(leafID, d.Name); cov != d.Size {
				v := violation(RuleCoverage, invalidf("core: operator %q dim %q tiled to %d, want %d", op.Name, d.Name, cov, d.Size))
				v.Op, v.Dim, v.Node = op.Name, d.Name, t.nodeSet[leafID].Name
				vs = append(vs, v)
			}
		}
	}
	for i, n := range t.nodeSet {
		for li, l := range n.Loops {
			if l.Extent < 1 {
				v := violation(RuleLoopExtent, invalidf("core: node %q loop %s has extent < 1", n.Name, l))
				v.Node, v.Dim, v.Loop = n.Name, l.Dim, li
				vs = append(vs, v)
			}
			if d := t.ldim[i][li]; d < 0 || !t.st.dimMask[i][d] {
				v := violation(RuleLoopDim, invalidf("core: node %q loop over dim %q that no operator in its subtree iterates", n.Name, l.Dim))
				v.Node, v.Dim, v.Loop = n.Name, l.Dim, li
				vs = append(vs, v)
			}
		}
	}

	// Resource rules. Levels must be in range before indexing spec tables.
	if !levelsOK {
		return vs
	}
	if !opts.SkipPECheck {
		if used, have := NumPE(root), spec.TotalPEs(); used > have {
			v := violation(RulePEBudget, infeasiblef("core: mapping uses %d PEs, chip has %d", used, have))
			v.Node = root.Name
			vs = append(vs, v)
		}
		uu := unitUsage(root, spec.NumLevels())
		for l := 0; l < spec.DRAMLevel(); l++ {
			if inst := spec.Instances(l); uu[l] > inst {
				v := violation(RuleUnitUsage, infeasiblef("core: mapping occupies %d level-%d (%s) instances, chip has %d",
					uu[l], l, spec.Levels[l].Name, inst))
				v.Node, v.Lvl = root.Name, l
				vs = append(vs, v)
			}
		}
	}
	if !opts.SkipCapacityCheck {
		rel := confRelTable(t, t.confinements(g))
		rows := make([]int64, len(t.nodeSet)*spec.NumLevels())
		t.stampDensities(g)
		fp := t.footprintInto(rows, spec.NumLevels(), rel, nil)
		for l := 0; l < spec.DRAMLevel(); l++ {
			if need, have := fp[l], spec.CapacityWords(l); need > have {
				v := violation(RuleCapacity, &CapacityError{Level: l, LevelName: spec.Levels[l].Name, NeedWords: need, HaveWords: have})
				v.Lvl = l
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// collectStructural is the collecting port of buildTree's fail-fast
// validation, visiting nodes in the same pre-order so the first violation
// matches buildTree's error.
func collectStructural(root *Node) []Violation {
	var vs []Violation
	leafOf := map[*workload.Operator]*Node{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.IsLeaf() {
			if len(n.Children) > 0 {
				v := violation(RuleLeafChildren, invalidf("core: leaf %q has children", n.Name))
				v.Node = n.Name
				vs = append(vs, v)
				return // do not descend: the subtree is not a tile tree
			}
			if prev := leafOf[n.Op]; prev != nil {
				v := violation(RuleDupOp, invalidf("core: operator %q appears in two leaves (%q, %q)", n.Op.Name, prev.Name, n.Name))
				v.Node, v.Op = n.Name, n.Op.Name
				vs = append(vs, v)
				return
			}
			leafOf[n.Op] = n
			return
		}
		if len(n.Children) == 0 {
			v := violation(RuleInteriorEmpty, invalidf("core: interior node %q has no children and no operator", n.Name))
			v.Node = n.Name
			vs = append(vs, v)
			return
		}
		for _, c := range n.Children {
			if c.Level > n.Level {
				v := violation(RuleLevelOrder, invalidf("core: child %q at level %d above parent %q at level %d", c.Name, c.Level, n.Name, n.Level))
				v.Node = c.Name
				vs = append(vs, v)
			}
			visit(c)
		}
	}
	visit(root)
	return vs
}

// leafOperators maps each operator to its (first) leaf without requiring a
// structurally valid tree.
func leafOperators(root *Node) map[*workload.Operator]*Node {
	out := map[*workload.Operator]*Node{}
	root.Walk(func(n *Node) {
		if n.IsLeaf() && out[n.Op] == nil {
			out[n.Op] = n
		}
	})
	return out
}

// QuickReject is a per-candidate pre-screen: the subset of AnalyzeStatic
// that runs in one tree walk with no compiled tables at all — structural
// legality, tiling coverage, loop dims, and (per opts) the PE and
// instance-occupancy budgets. It fails fast and returns the exact error
// the Compile/Evaluate pipeline would produce, or nil when no static rule
// (capacity excepted, which needs compiled access groups) rejects the
// point. Screening with it therefore never changes which points a caller
// accepts: a nil result proceeds to full evaluation exactly as before.
func QuickReject(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	// One pass replays buildTree's checks while gathering the parent links
	// and subtree dim sets the tiling rules need.
	parent := map[*Node]*Node{}
	leafOf := map[*workload.Operator]*Node{}
	dims := map[*Node]map[string]bool{}
	var nodes []*Node
	var ferr error
	var visit func(n *Node) map[string]bool
	visit = func(n *Node) map[string]bool {
		nodes = append(nodes, n)
		if n.IsLeaf() {
			if len(n.Children) > 0 {
				ferr = invalidf("core: leaf %q has children", n.Name)
				return nil
			}
			if prev := leafOf[n.Op]; prev != nil {
				ferr = invalidf("core: operator %q appears in two leaves (%q, %q)", n.Op.Name, prev.Name, n.Name)
				return nil
			}
			leafOf[n.Op] = n
			d := map[string]bool{}
			for _, dim := range n.Op.Dims {
				d[dim.Name] = true
			}
			dims[n] = d
			return d
		}
		if len(n.Children) == 0 {
			ferr = invalidf("core: interior node %q has no children and no operator", n.Name)
			return nil
		}
		d := map[string]bool{}
		for _, c := range n.Children {
			if c.Level > n.Level {
				ferr = invalidf("core: child %q at level %d above parent %q at level %d", c.Name, c.Level, n.Name, n.Level)
				return nil
			}
			parent[c] = n
			cd := visit(c)
			if ferr != nil {
				return nil
			}
			for dim := range cd {
				d[dim] = true
			}
		}
		dims[n] = d
		return d
	}
	visit(root)
	if ferr != nil {
		return ferr
	}
	// validateStructure.
	for _, op := range g.Ops {
		if leafOf[op] == nil {
			return invalidf("core: operator %q has no leaf tile in the tree", op.Name)
		}
	}
	for _, n := range nodes {
		if n.Level < 0 || n.Level >= spec.NumLevels() {
			return invalidf("core: node %q level %d outside architecture with %d levels", n.Name, n.Level, spec.NumLevels())
		}
	}
	// validateTiling.
	for _, op := range g.Ops {
		leaf := leafOf[op]
		for _, d := range op.Dims {
			cov := 1
			for m := leaf; m != nil; m = parent[m] {
				cov *= m.DimExtent(d.Name)
			}
			if cov != d.Size {
				return invalidf("core: operator %q dim %q tiled to %d, want %d", op.Name, d.Name, cov, d.Size)
			}
		}
	}
	for _, n := range nodes {
		for _, l := range n.Loops {
			if l.Extent < 1 {
				return invalidf("core: node %q loop %s has extent < 1", n.Name, l)
			}
			if !dims[n][l.Dim] {
				return invalidf("core: node %q loop over dim %q that no operator in its subtree iterates", n.Name, l.Dim)
			}
		}
	}
	if !opts.SkipPECheck {
		if used, have := NumPE(root), spec.TotalPEs(); used > have {
			return infeasiblef("core: mapping uses %d PEs, chip has %d", used, have)
		}
		uu := unitUsage(root, spec.NumLevels())
		for l := 0; l < spec.DRAMLevel(); l++ {
			if inst := spec.Instances(l); uu[l] > inst {
				return infeasiblef("core: mapping occupies %d level-%d (%s) instances, chip has %d",
					uu[l], l, spec.Levels[l].Name, inst)
			}
		}
	}
	return nil
}
