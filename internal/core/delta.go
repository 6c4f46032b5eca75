package core

import "context"

// DeltaState carries everything EvaluateDelta needs to re-evaluate a
// perturbed tiling incrementally: a dedicated scratch arena whose rows
// persist between calls, a per-node snapshot of the loop nests the cached
// state was computed under, and the cached per-(node, group) boundary
// volumes of the data-movement pass.
//
// The invalidation rule follows from what each cached quantity reads. A
// node's boundary volumes are a pure function of the loop nests in its
// subtree (slice shapes, trip counts, retention) and at its ancestors
// (invocation counts); its footprint row reads only the subtree. So a
// tiling diff marks nodes whose own loops changed (dirty), folds that up
// (dirtySub) and down (dirtyUp) the tree, recomputes affected = dirtySub ∪
// dirtyUp nodes, and replays the cached float64 volumes for the rest in
// the full pass's exact accumulation order — making the delta route
// bit-identical to a cold evaluation (pinned by the conformance
// differentials).
//
// A DeltaState belongs to one Program family and one goroutine at a time.
type DeltaState struct {
	p    *Program
	opts Options
	s    *Scratch

	// valid marks the caches as consistent with the loops snapshot. Any
	// run poisons it on entry and blesses it only once every cached phase
	// has been brought up to date (capacity-infeasible runs included:
	// the capacity check fires after both cached phases complete).
	valid bool

	// loops is the per-node tiling snapshot the caches were computed
	// under; backing arrays are reused across snapshots.
	loops [][]Loop

	// tf/tu cache each (node, group) fill/update volume; fills/updates
	// cache the per-node sums.
	tf, tu         [][]float64
	fills, updates []float64

	// Diff masks, recomputed each call.
	dirty    []bool
	dirtySub []bool
	dirtyUp  []bool
	affected []bool
	fpNeed   []bool
}

// NewDelta creates a delta-evaluation state for the Program's structure
// with the given options fixed. The first EvaluateDelta call runs a full
// evaluation that primes the caches; later calls pay only for the parts of
// the tree whose loop nests changed.
func (p *Program) NewDelta(opts Options) *DeltaState {
	n := len(p.t.nodeSet)
	d := &DeltaState{
		p:        p,
		opts:     opts,
		s:        p.NewScratch(),
		loops:    make([][]Loop, n),
		tf:       make([][]float64, n),
		tu:       make([][]float64, n),
		fills:    make([]float64, n),
		updates:  make([]float64, n),
		dirty:    make([]bool, n),
		dirtySub: make([]bool, n),
		dirtyUp:  make([]bool, n),
		affected: make([]bool, n),
		fpNeed:   make([]bool, n),
	}
	for i := range p.t.nodeSet {
		if g := len(p.t.st.groups[i]); g > 0 {
			d.tf[i] = make([]float64, g)
			d.tu[i] = make([]float64, g)
		}
	}
	return d
}

// EvaluateDelta evaluates a tiling of the Program's structure, reusing the
// DeltaState's caches for every node whose analysis inputs are unchanged
// since the previous call. Results are bit-identical to Program.Evaluate
// on the same tree. The returned Result aliases the state's arena and is
// valid only until the next call; use Result.Clone to keep one.
//
// Options other than the state's poison the caches and force a full
// recompute, as does any error that interrupts the pipeline before the
// cached phases complete (capacity errors do not: they fire last).
func (p *Program) EvaluateDelta(ctx context.Context, d *DeltaState, root *Node, opts Options) (*Result, error) {
	if opts != d.opts {
		d.opts = opts
		d.valid = false
	}
	t := &d.s.view
	if err := p.t.rebindNodes(t, root); err != nil {
		return nil, err
	}
	e := &evaluator{ctx: ctx, p: p, t: t, opts: d.opts, s: d.s, delta: d}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if !d.valid {
		t.setLdim()
	} else {
		// The diff reads only the loops, so it runs first and the view
		// recomputes just the rows of the nodes it marks dirty: every
		// other row was computed under the snapshot's equal loops.
		d.diff(t)
		t.setRows(d.dirty)
		e.affected = d.affected
		e.fpNeed = d.fpNeed
		e.vDirty = d.dirty
		e.vDirtyUp = d.dirtyUp
	}
	d.valid = false
	res, err := e.run()
	if err != nil && !IsOOM(err) {
		return nil, err
	}
	// Success, or capacity-infeasible: both cached phases (data movement
	// and footprint rows) completed for this tiling, so the caches are
	// consistent with it.
	d.snapshot(t, e.affected == nil)
	d.valid = true
	return res, err
}

// diff computes the per-node dirty masks of the new tiling against the
// snapshot.
func (d *DeltaState) diff(t *tree) {
	n := len(t.nodeSet)
	for i := 0; i < n; i++ {
		d.dirty[i] = !loopsEqual(t.nodeSet[i].Loops, d.loops[i])
	}
	for i := n - 1; i >= 0; i-- {
		ds := d.dirty[i]
		if !ds {
			for _, c := range t.st.children[i] {
				if d.dirtySub[c] {
					ds = true
					break
				}
			}
		}
		d.dirtySub[i] = ds
	}
	for i := 0; i < n; i++ {
		p := t.st.parent[i]
		d.dirtyUp[i] = p >= 0 && (d.dirty[p] || d.dirtyUp[p])
	}
	for i := 0; i < n; i++ {
		d.affected[i] = d.dirtySub[i] || d.dirtyUp[i]
		d.fpNeed[i] = d.dirtySub[i]
	}
}

// snapshot records the tiling the caches now reflect. On a full run every
// node is recorded; on a delta run only the dirty nodes changed.
func (d *DeltaState) snapshot(t *tree, all bool) {
	for i, n := range t.nodeSet {
		if all || d.dirty[i] {
			d.loops[i] = append(d.loops[i][:0], n.Loops...)
		}
	}
}

func loopsEqual(a, b []Loop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the Result out of whatever arena it aliases, for
// callers of EvaluateInto/EvaluateDelta that keep a result beyond the
// arena's next use.
func (r *Result) Clone() *Result { return cloneResult(r) }
