package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// point is a request resolved through the public input functions.
type point struct {
	spec   *arch.Spec
	g      *workload.Graph
	root   *core.Node
	df     dataflows.Dataflow
	dfName string
	opts   core.Options
}

// stageFn wraps one stage of the service path; the replay times it, the
// cold check runs it bare.
type stageFn func(name string, fn func() error) error

func bare(_ string, fn func() error) error { return fn() }

// resolvePoint turns a decoded request into a design point through the
// same public functions the service uses, in its order: input selection,
// then YAML, notation or architecture parsing, then the template Build.
// A tune request comes back with a nil root.
func resolvePoint(req *serve.EvaluateRequest, stage stageFn) (*point, error) {
	p := &point{opts: core.Options{
		SkipCapacityCheck: req.SkipCapacityCheck,
		SkipPECheck:       req.SkipPECheck,
		DisableRetention:  req.DisableRetention,
	}}
	var form string
	if err := stage("serve.SelectInput", func() (err error) {
		form, err = serve.SelectInput(req)
		return err
	}); err != nil {
		return nil, err
	}
	if form == "config" {
		p.dfName = "config"
		return p, stage("yamlfe.LoadStrict", func() error {
			cfg, err := yamlfe.LoadStrict(req.ConfigYAML)
			if err == nil {
				p.spec, p.g, p.root = cfg.Spec, cfg.Graph, cfg.Root
			}
			return err
		})
	}
	var err error
	if req.ArchSpec != "" {
		err = stage("arch.ParseSpec", func() (err error) {
			p.spec, err = arch.ParseSpec(req.ArchSpec)
			return err
		})
	} else {
		p.spec, err = serve.PickArch(req.Arch)
	}
	if err != nil {
		return nil, err
	}
	if form == "notation" {
		p.dfName = "notation"
		return p, stage("notation.Parse", func() error {
			var err error
			if req.WorkloadSpec != "" {
				p.g, err = workload.ParseGraph(req.WorkloadSpec)
			} else {
				p.g, err = serve.PickGraph(req.Workload)
			}
			if err == nil {
				p.root, err = notation.Parse(req.Notation, p.g)
			}
			return err
		})
	}
	p.dfName = req.Dataflow
	return p, stage("dataflows.Build", func() error {
		var err error
		if p.df, err = serve.PickDataflow(req.Dataflow, req.Workload, p.spec); err != nil {
			return err
		}
		p.g = p.df.Graph()
		if req.Tune > 0 {
			return nil
		}
		factors := p.df.DefaultFactors()
		if len(req.Factors) > 0 {
			factors = req.Factors
		}
		p.root, err = p.df.Build(factors)
		return err
	})
}

// statusOf maps an evaluation error to the service's status code.
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidMapping):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// coldResponse answers a request through the cold route — resolve, tune
// if asked, core.Evaluate, encode — and returns the status and the body
// /v1/evaluate must send (minus the cached flag).
func coldResponse(req *serve.EvaluateRequest) (int, []byte) {
	p, err := resolvePoint(req, bare)
	if err != nil {
		return http.StatusBadRequest, nil
	}
	resp := &serve.EvaluateResponse{Workload: p.g.Name, Dataflow: p.dfName, Arch: p.spec.Name}
	root := p.root
	if root == nil {
		ev := mapper.TuneContext(context.Background(), p.df, p.spec, p.opts, req.Tune, req.Seed)
		if ev == nil {
			return http.StatusUnprocessableEntity, nil
		}
		resp.TunedFactors = ev.Factors
		if root, err = p.df.Build(ev.Factors); err != nil {
			return statusOf(err), nil
		}
	}
	res, err := core.Evaluate(root, p.g, p.spec, p.opts)
	if err != nil {
		return statusOf(err), nil
	}
	resp.Result = serve.NewResultJSON(res, p.spec)
	body, err := json.Marshal(resp)
	if err != nil {
		return http.StatusInternalServerError, nil
	}
	return http.StatusOK, append(body, '\n')
}

// programKey stands in for the service's structure-only Program key.
func programKey(spec *arch.Spec, g *workload.Graph, root *core.Node) string {
	return arch.FormatSpec(spec) + workload.CanonicalGraph(g) + core.StructureSignature(root)
}

// replayStages re-runs the lowest rung's requests, one at a time, through
// the service path's public functions with a span per stage, and splits
// the measured latency into those stages plus an unattributed remainder
// (HTTP, pool wait, memo bookkeeping). The split uses each class's median
// latency and median stage time, weighted by the class's request count, so
// a stall on the live path does not decide it. A local result memo and
// Program map stand in for the service's caches, warmed like them.
func replayStages(rc *runCtx, cat *catalog, rg *rung, m map[string]float64) error {
	ctx := context.Background()
	results := memo.NewShardedLRU(len(cat.hot))
	for _, r := range cat.hot {
		body, _ := json.Marshal(&r)
		results.Put(string(body), true)
	}
	programs := map[string]*core.Program{}
	for _, t := range cat.templates {
		root, err := t.df.Build(t.df.DefaultFactors())
		if err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
		prog, err := core.Compile(root, t.df.Graph(), t.spec)
		if err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
		programs[programKey(t.spec, t.df.Graph(), root)] = prog
	}

	var spent, latency [numClasses][]float64
	for n, it := range rg.items {
		trace := int32(n)
		var total time.Duration
		stage := func(name string, fn func() error) error {
			s := rc.spans.begin(name, trace, -1)
			t0 := time.Now()
			err := fn()
			total += time.Since(t0)
			rc.spans.finish(s)
			return err
		}
		var req serve.EvaluateRequest
		if err := stage("serve.Unmarshal", func() error { return json.Unmarshal(it.body, &req) }); err != nil {
			return err
		}
		if it.class == classHot {
			// The hit path: a request-key lookup and a result lookup, then
			// the stored bytes go out unchanged.
			stage("memo.Get", func() error { results.Get(string(it.body)); return nil })
			stage("memo.Get", func() error { results.Get(string(it.body)); return nil })
		} else if err := replayOne(ctx, &req, stage, programs); err != nil {
			return err
		}
		spent[it.class] = append(spent[it.class], ms(total))
		latency[it.class] = append(latency[it.class], it.latencyMS())
	}
	var staged, measured float64
	var b strings.Builder
	for c := 0; c < numClasses; c++ {
		n := float64(len(latency[c]))
		staged += n * median(spent[c])
		measured += n * median(latency[c])
		fmt.Fprintf(&b, "# %-8s %6d requests: median latency %.3f ms, median replayed stages %.3f ms\n", classNames[c], len(latency[c]), median(latency[c]), median(spent[c]))
	}
	st := rc.spans.stats()
	stages := map[string]string{
		"serve.decode_us":    "serve.Unmarshal",
		"serve.select_us":    "serve.SelectInput",
		"yamlfe.load_us":     "yamlfe.LoadStrict",
		"notation.parse_us":  "notation.Parse",
		"arch.parse_us":      "arch.ParseSpec",
		"dataflows.build_us": "dataflows.Build",
		"serve.key_us":       "serve.EvaluateKey",
		"core.compile_us":    "core.Compile",
		"core.rebind_us":     "core.WithTiling",
		"core.eval_us":       "core.Evaluate",
		"mapper.tune_us":     "mapper.TuneContext",
		"serve.encode_us":    "serve.Encode",
		"memo.lookup_us":     "memo.Get",
	}
	for metric, span := range stages {
		m[metric] = st[span].meanUS()
	}
	m["serve.unattributed_share"] = 1 - ratio(staged, measured)
	rc.table("%s", rc.spans.table(fmt.Sprintf("serve-mix replayed stages (%d requests of the %.0f req/s rung)", len(rg.items), rg.rate)))
	rc.table("%s# unattributed (HTTP, pool wait, memo bookkeeping): %.1f%% of the count-weighted median latency\n",
		b.String(), 100*m["serve.unattributed_share"])
	return nil
}

// replayOne runs one non-hot request's stages after decoding.
func replayOne(ctx context.Context, req *serve.EvaluateRequest, stage stageFn, programs map[string]*core.Program) error {
	p, err := resolvePoint(req, stage)
	if err != nil {
		return nil // a rejected input ends its path here, as in the service
	}
	root := p.root
	var tuned map[string]int
	if root == nil {
		var ev *mapper.Evaluation
		stage("mapper.TuneContext", func() error {
			ev = mapper.TuneContext(ctx, p.df, p.spec, p.opts, req.Tune, req.Seed)
			return nil
		})
		if ev == nil {
			return nil
		}
		tuned = ev.Factors
		if err := stage("dataflows.Build", func() (err error) { root, err = p.df.Build(ev.Factors); return err }); err != nil {
			return nil
		}
	} else {
		stage("serve.EvaluateKey", func() error { serve.EvaluateKey(p.spec, p.g, root, p.opts); return nil })
	}
	key := programKey(p.spec, p.g, root)
	prog, ok := programs[key]
	if ok {
		if err := stage("core.WithTiling", func() (err error) { prog, err = prog.WithTiling(root); return err }); err != nil {
			ok = false
		}
	}
	if !ok {
		if err := stage("core.Compile", func() (err error) { prog, err = core.Compile(root, p.g, p.spec); return err }); err != nil {
			return nil
		}
		programs[key] = prog
	}
	var res *core.Result
	if err := stage("core.Evaluate", func() (err error) { res, err = prog.Evaluate(ctx, p.opts); return err }); err != nil {
		return nil
	}
	return stage("serve.Encode", func() error {
		resp := &serve.EvaluateResponse{Workload: p.g.Name, Dataflow: p.dfName, Arch: p.spec.Name, TunedFactors: tuned, Result: serve.NewResultJSON(res, p.spec)}
		_, err := json.Marshal(resp)
		return err
	})
}
