package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/yamlfe"
)

// Request classes of the serve-mix stream and their shares.
const (
	classHot = iota
	classRebind
	classCompile
	classParse
	classTune
	numClasses
)

var (
	classNames  = [numClasses]string{"hot", "rebind", "compile", "parse", "tune"}
	classShares = [numClasses]float64{0.55, 0.30, 0.07, 0.06, 0.02}
)

// The open-loop ladder: request rates in req/s with their shares of the
// window. The reference rung, at light load so that a slower machine still
// leaves it well below capacity, holds the largest share (p50_ms, p99_ms
// and search_s are read there); the rungs above it close in on the
// service's capacity, and the top rung is past it, so evals_per_s there is
// the saturated throughput.
var ladder = []struct{ rate, weight float64 }{
	{1000, 6}, {2000, 1}, {2500, 1}, {3000, 1}, {3500, 1}, {4000, 1}, {5000, 1},
}

const (
	refRung = 0
	// limitMS is the p99 latency limit for max_rps. README.md says why it
	// is not 10 ms on a small shared machine.
	limitMS  = 100.0
	tuneMCTS = 40 // MCTS rounds of a tune request
	senders  = 2  // client connections, one sender goroutine each
)

// hotArchs, hotWorkloads, attnFlows and convFlows span the 32 catalog
// design points of the hot class.
var (
	hotArchs     = []string{"edge", "cloud"}
	hotWorkloads = []string{"attention:Bert-S", "attention:ViT/16-L", "attention:T5", "conv:CC3"}
	attnFlows    = []string{"TileFlow", "FLAT-RGran", "Chimera", "Layerwise"}
	convFlows    = []string{"TileFlow", "ISOS", "Fused-Layer", "Layerwise"}
)

// rebindStructures are the templates whose fresh factor assignments make
// the rebind class (and the notation and YAML inputs of the parse class);
// each has a factor space of hundreds of points or more.
var rebindStructures = []struct{ arch, workload, dataflow string }{
	{"edge", "attention:ViT/16-B", "TileFlow"},
	{"edge", "attention:Bert-S", "Chimera"},
	{"cloud", "attention:ViT/16-L", "TileFlow"},
	{"cloud", "attention:T5", "Chimera"},
	{"edge", "attention:T5", "TileFlow"},
	{"cloud", "attention:Bert-S", "TileFlow"},
	{"edge", "conv:CC1", "TileFlow"},
	{"cloud", "conv:CC3", "TileFlow"},
}

type template struct {
	arch, workload, dataflow string
	spec                     *arch.Spec
	df                       dataflows.Dataflow
}

// catalog is the serve-mix input universe, built from the program's own
// catalogs.
type catalog struct {
	hot []serve.EvaluateRequest
	// hotCycles are the cold route's cycles of the hot points; the output
	// check holds every served hot response to them.
	hotCycles []float64
	templates []template
}

func buildCatalog(seed int64) (*catalog, error) {
	c := &catalog{}
	var feasible []serve.EvaluateRequest
	for _, a := range hotArchs {
		for _, wl := range hotWorkloads {
			flows := attnFlows
			if strings.HasPrefix(wl, "conv:") {
				flows = convFlows
			}
			for _, df := range flows {
				req := serve.EvaluateRequest{Arch: a, Workload: wl, Dataflow: df}
				if st, body := coldResponse(&req); st == http.StatusOK {
					var resp serve.EvaluateResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						return nil, err
					}
					feasible = append(feasible, req)
					c.hotCycles = append(c.hotCycles, resp.Result.Cycles)
				}
			}
		}
	}
	// The seed decides only which point gets which popularity rank.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(feasible), func(i, j int) { feasible[i], feasible[j] = feasible[j], feasible[i] })
	c.hot = feasible
	if len(feasible) == 0 {
		return nil, fmt.Errorf("no feasible catalog point")
	}
	for _, r := range rebindStructures {
		spec, err := serve.PickArch(r.arch)
		if err != nil {
			return nil, err
		}
		df, err := serve.PickDataflow(r.dataflow, r.workload, spec)
		if err != nil {
			return nil, err
		}
		c.templates = append(c.templates, template{arch: r.arch, workload: r.workload, dataflow: r.dataflow, spec: spec, df: df})
	}
	return c, nil
}

// item is one scheduled request and what came back.
type item struct {
	class int
	body  []byte
	// due is the scheduled send time, released when the generator queued
	// the request, done when its response was read.
	due, released, done time.Time
	status              int
	hash                [32]byte
	err                 error
}

func (it *item) latencyMS() float64 {
	if it.err != nil {
		return math.Inf(1)
	}
	return ms(it.done.Sub(it.due))
}

// generator draws the request stream from one seed. Every request of the
// write classes is a fresh design point. Within a class, requests cycle
// through the templates and catalog points, so every seed gets the same
// mix of cheap and costly structures and only the factors, edits, seeds,
// popularity ranks and interleaving change.
type generator struct {
	rng  *rand.Rand
	cat  *catalog
	zipf *rand.Zipf
	seen map[string]bool
	edit int // counter behind the unique numeric edits
	// turn counts each class's requests, for the round-robin picks.
	turn [numClasses]int
}

func newGenerator(seed int64, cat *catalog) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		rng:  rng,
		cat:  cat,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(cat.hot)-1)),
		seen: map[string]bool{},
	}
}

// template and base pick the class's next template or catalog point.
func (g *generator) template(class int) template {
	return g.cat.templates[g.turn[class]%len(g.cat.templates)]
}

func (g *generator) base(class int) serve.EvaluateRequest {
	return g.cat.hot[g.turn[class]%len(g.cat.hot)]
}

func (g *generator) pickClass() int {
	u := g.rng.Float64()
	for c := 0; c < numClasses-1; c++ {
		if u < classShares[c] {
			return c
		}
		u -= classShares[c]
	}
	return numClasses - 1
}

// randomTree draws factor assignments of t until one builds.
func (g *generator) randomTree(t template) (map[string]int, *core.Node) {
	specs := t.df.Factors()
	for {
		f := make(map[string]int, len(specs))
		for _, s := range specs {
			ch := s.Choices()
			f[s.Key] = ch[g.rng.Intn(len(ch))]
		}
		if root, err := t.df.Build(f); err == nil {
			return f, root
		}
	}
}

// editedSpec returns spec with its DRAM bandwidth nudged by a unique
// amount: a new architecture, hence a new compiled Program.
func (g *generator) editedSpec(spec *arch.Spec) *arch.Spec {
	g.edit++
	s := spec.Clone()
	s.Levels[s.DRAMLevel()].BandwidthGBs *= 1 + float64(g.edit)*1e-6
	return s
}

func (g *generator) next() *item {
	for {
		it := &item{class: g.pickClass()}
		var req serve.EvaluateRequest
		switch it.class {
		case classHot:
			req = g.cat.hot[g.zipf.Uint64()]
		case classRebind:
			t := g.template(it.class)
			f, root := g.randomTree(t)
			// Distinct factor maps can build one tree; only a new tree is
			// a new design point.
			point := t.arch + "\n" + notation.Print(root)
			if g.seen[point] {
				continue
			}
			g.seen[point] = true
			req = serve.EvaluateRequest{Arch: t.arch, Workload: t.workload, Dataflow: t.dataflow, Factors: f}
		case classCompile:
			base := g.base(it.class)
			spec, _ := serve.PickArch(base.Arch)
			req = serve.EvaluateRequest{ArchSpec: arch.FormatSpec(g.editedSpec(spec)), Workload: base.Workload, Dataflow: base.Dataflow}
		case classParse:
			// Alternate notation and YAML, each cycling the templates.
			t := g.cat.templates[g.turn[it.class]/2%len(g.cat.templates)]
			_, root := g.randomTree(t)
			if g.turn[it.class]%2 == 0 {
				req = serve.EvaluateRequest{Arch: t.arch, Workload: t.workload, Notation: notation.Print(root)}
			} else {
				req = serve.EvaluateRequest{ConfigYAML: yamlfe.Render(g.editedSpec(t.spec), t.df.Graph(), root)}
			}
		case classTune:
			base := g.base(it.class)
			req = serve.EvaluateRequest{Arch: base.Arch, Workload: base.Workload, Dataflow: base.Dataflow, Tune: tuneMCTS, Seed: g.rng.Int63n(1 << 40)}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			panic(err) // EvaluateRequest always marshals
		}
		if it.class != classHot {
			if g.seen[string(body)] {
				continue
			}
			g.seen[string(body)] = true
		}
		g.turn[it.class]++
		it.body = body
		return it
	}
}

// rung is one ladder step: its requests in schedule order.
type rung struct {
	rate  float64
	items []*item
	start time.Time
	end   time.Time // last completion
}

// schedule generates a stream for the given rates and durations, spaced
// evenly at each rung's rate.
func schedule(seed int64, cat *catalog, rates []float64, durs []time.Duration) ([]*rung, string) {
	g := newGenerator(seed, cat)
	h := sha256.New()
	var rungs []*rung
	for i, r := range rates {
		n := int(r * durs[i].Seconds())
		rg := &rung{rate: r}
		for i := 0; i < n; i++ {
			it := g.next()
			h.Write(it.body)
			rg.items = append(rg.items, it)
		}
		rungs = append(rungs, rg)
	}
	return rungs, fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// liveServer is an in-process tileflow-serve with default settings behind
// a real loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:  serve.New(serve.Config{}),
		url:  "http://" + ln.Addr().String() + "/v1/evaluate",
		done: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// rungStats summarizes one rung. Its p99 is the median over consecutive
// slices of the rung, so a passing rung meets the limit for most of its
// length, not only on average.
type rungStats struct {
	rate, p50, p99, lagP99, tput float64
	failed                       int
	pass                         bool
}

// latencies lists the rung's latencies in schedule order; a failed
// request misses any limit.
func latencies(rg *rung, bad map[*item]bool) []float64 {
	lat := make([]float64, 0, len(rg.items))
	for _, it := range rg.items {
		l := it.latencyMS()
		if bad[it] {
			l = math.Inf(1)
		}
		lat = append(lat, l)
	}
	return lat
}

func summarize(rg *rung, bad map[*item]bool) rungStats {
	lat := latencies(rg, bad)
	lag := make([]float64, 0, len(rg.items))
	st := rungStats{rate: rg.rate}
	for _, it := range rg.items {
		if bad[it] {
			st.failed++
		}
		lag = append(lag, ms(it.released.Sub(it.due)))
	}
	st.p50 = quantile(lat, 0.5)
	st.p99 = windowed(lat, func(w []float64) float64 { return quantile(w, 0.99) })
	st.lagP99 = quantile(lag, 0.99)
	// No growing backlog: the rung's last quarter must meet the limit too.
	tail := lat[len(lat)*3/4:]
	st.pass = st.p99 <= limitMS && st.failed == 0 && quantile(tail, 0.5) <= limitMS
	st.tput = completionRate(rg)
	return st
}

// completionRate is the rung's responses per second: the median over
// equal time slices from the rung's start to its last response, so one
// stall does not set it.
func completionRate(rg *rung) float64 {
	span := rg.end.Sub(rg.start)
	counts := make([]float64, windows)
	for _, it := range rg.items {
		k := int(float64(it.done.Sub(rg.start)) / float64(span) * windows)
		counts[min(max(k, 0), windows-1)]++
	}
	for i := range counts {
		counts[i] /= span.Seconds() / windows
	}
	return median(counts)
}

// maxRate is the highest ladder rate meeting the limit, interpolated on
// log latency toward the next (failing) rung. A lone failing rung below a
// passing one is a stall, not saturation, and does not end the search.
func maxRate(stats []rungStats) float64 {
	j := -1
	for i, st := range stats {
		if st.pass {
			j = i
		}
	}
	switch {
	case j < 0:
		return stats[0].rate * math.Min(1, limitMS/stats[0].p99)
	case j == len(stats)-1:
		return stats[j].rate
	}
	lo, hi := stats[j], stats[j+1]
	hiP := math.Min(hi.p99, 1e6)
	frac := 1.0
	if hiP > lo.p99 {
		frac = (math.Log(limitMS) - math.Log(lo.p99)) / (math.Log(hiP) - math.Log(lo.p99))
	}
	return lo.rate + (hi.rate-lo.rate)*math.Max(0, math.Min(1, frac))
}

// maxLagShare is the largest share of the latency it distorts that the
// generator's own release lag may reach in a valid run.
const maxLagShare = 0.25

// lagInvalid says why a ladder's latencies measure the client rather than
// the server, or returns "". Latency counts from the due time, so a
// request released late carries the generator's lag in its latency. The
// run is invalid when the lag p99 exceeds maxLagShare of the reference
// rung's p99 (p50_ms and p99_ms are read there), or of the p99 limit on
// any rung (max_rps is read against it).
func lagInvalid(sums []rungStats) string {
	if ref := sums[refRung]; ref.lagP99 > maxLagShare*ref.p99 {
		return fmt.Sprintf("generator lag p99 %.2f ms > %.0f%% of the reference rung's p99 %.2f ms: the client fell behind its schedule", ref.lagP99, 100*maxLagShare, ref.p99)
	}
	for _, st := range sums {
		if st.lagP99 > maxLagShare*limitMS {
			return fmt.Sprintf("generator lag p99 %.2f ms at %.0f req/s > %.0f%% of the %.0f ms limit: the client fell behind its schedule", st.lagP99, st.rate, 100*maxLagShare, limitMS)
		}
	}
	return ""
}

// warm sends each hot point once and a default-factor request per rebind
// structure, so the result and Program caches hold what the mix expects
// to hit.
func (s *liveServer) warm(cat *catalog) error {
	c := newClient(s.url)
	defer c.http.CloseIdleConnections()
	var reqs []serve.EvaluateRequest
	reqs = append(reqs, cat.hot...)
	for _, t := range cat.templates {
		reqs = append(reqs, serve.EvaluateRequest{Arch: t.arch, Workload: t.workload, Dataflow: t.dataflow})
	}
	for _, r := range reqs {
		body, _ := json.Marshal(&r)
		it := &item{body: body}
		c.send(it)
		if it.err != nil {
			return it.err
		}
	}
	return nil
}

// checkResponses re-derives every distinct request through the cold route
// and returns the items whose status or body differ.
func checkResponses(rungs []*rung) (bad map[*item]bool, unique int) {
	type want struct {
		status int
		hash   [32]byte
	}
	expected := map[string]want{}
	bad = map[*item]bool{}
	var keys []string
	for _, rg := range rungs {
		for _, it := range rg.items {
			key := string(it.body)
			w, ok := expected[key]
			if !ok {
				var req serve.EvaluateRequest
				if err := json.Unmarshal(it.body, &req); err != nil {
					bad[it] = true
					continue
				}
				st, body := coldResponse(&req)
				w = want{status: st, hash: resultDigest(body)}
				expected[key] = w
				keys = append(keys, key)
			}
			if it.err != nil || it.status != w.status || (w.status == http.StatusOK && it.hash != w.hash) {
				bad[it] = true
			}
		}
	}
	return bad, len(keys)
}

func runServeMix(rc *runCtx) (*outcome, error) {
	var cat *catalog
	var live *liveServer
	setup, err := rc.timeSetup(setupReps, func() error {
		if live != nil {
			if err := live.close(); err != nil {
				return err
			}
		}
		var err error
		if cat, err = buildCatalog(rc.seed); err != nil {
			return err
		}
		if live, err = startServer(); err != nil {
			return err
		}
		return live.warm(cat)
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := live.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stop server:", err)
		}
	}()

	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	total := 0.0
	for _, r := range ladder {
		total += r.weight
	}
	var rates []float64
	var durs []time.Duration
	for _, r := range ladder {
		rates = append(rates, r.rate)
		durs = append(durs, time.Duration(float64(rc.window)*r.weight/total))
	}
	t0 := time.Now()
	rungs, digest := schedule(rc.seed, cat, rates, durs)
	rc.stamp["stream_digest"] = digest
	rc.stamp["gen_s"] = time.Since(t0).Seconds()

	stats0 := live.srv.CacheStats()
	compiles0 := core.CompileCount()
	mem0, cpu0 := snapMem(), rc.workCPU()
	if err := runLadder(live.url, rungs); err != nil {
		return nil, err
	}
	mem1, cpu1 := snapMem(), rc.workCPU()
	rc.timedWindow(mem0.at, mem1.at)
	stats1 := live.srv.CacheStats()
	compiles1 := core.CompileCount()

	bad, unique := checkResponses(rungs)
	var all []*item
	var sums []rungStats
	for _, rg := range rungs {
		all = append(all, rg.items...)
		sums = append(sums, summarize(rg, bad))
	}
	out.attempted += len(all)
	out.failed += len(bad)

	ref := sums[refRung]
	m["setup_s"] = setup
	m["cpu_us_per_eval"] = us(cpu1-cpu0) / float64(len(all))
	m["wall.p50_ms"] = ref.p50
	m["wall.p99_ms"] = ref.p99
	m["wall.max_rps"] = maxRate(sums)
	m["best_cycles"] = geomean(cat.hotCycles)
	rc.stamp["samples"] = map[string]int{"requests": len(all), "reference_rung": len(rungs[refRung].items)}
	rc.stamp["unique_points"] = unique
	rc.stamp["gc_cycles"] = mem1.gcs - mem0.gcs
	rc.stamp["best_cycles"] = m["best_cycles"]
	rc.stamp["gen_lag_p99_ms"] = ref.lagP99
	if reason := lagInvalid(sums); reason != "" {
		rc.stamp["valid"] = false
		rc.stamp["invalid_reason"] = reason
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# serve-mix ladder (limit p99 <= %.0f ms)\n# %8s %8s %9s %9s %9s %10s %6s %5s\n", limitMS, "rate", "n", "p50_ms", "p99_ms", "lag_p99", "done_rps", "fail", "pass")
	for i, st := range sums {
		fmt.Fprintf(&b, "# %8.0f %8d %9.3f %9.3f %9.3f %10.1f %6d %5v\n", st.rate, len(rungs[i].items), st.p50, st.p99, st.lagP99, st.tput, st.failed, st.pass)
	}
	rc.table("%s", b.String())

	if rc.trace {
		// Spans are recorded only in the replay after the ladder, so the
		// ladder runs exactly as in an untraced run.
		m["trace.overhead_ratio"] = 1
		runtimeMetrics(m, mem0, mem1, len(all))
		m["mapper.cpu_util"] = ratio(float64(cpu1-cpu0), float64(mem1.at.Sub(mem0.at))*float64(runtime.NumCPU()))
		hits, misses := stats1.Hits-stats0.Hits, stats1.Misses-stats0.Misses
		m["memo.result_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["memo.result_evictions"] = float64(stats1.Evictions - stats0.Evictions)
		m["memo.program_miss_ratio"] = ratio(float64(compiles1-compiles0), float64(misses))
		m["serve.gen_lag_p99_ms"] = ref.lagP99
		rejected := 0
		for _, it := range all {
			if it.status != http.StatusOK {
				rejected++
			}
		}
		m["core.reject_ratio"] = ratio(float64(rejected), float64(len(all)))
		var perClass [numClasses][]float64
		for _, it := range rungs[0].items {
			perClass[it.class] = append(perClass[it.class], it.latencyMS())
		}
		for c := 0; c < numClasses; c++ {
			m["serve."+classNames[c]+"_p50_ms"] = median(perClass[c])
		}
		if err := replayStages(rc, cat, rungs[0], m); err != nil {
			return nil, err
		}
	}
	return out, nil
}
