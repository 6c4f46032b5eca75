package lint

import (
	"strings"
)

// allowedImports is the layering table: for each constrained package, the
// exact set of repro/internal packages it may import. Imports of packages
// outside the module and self-imports are always fine; internal imports not
// in the row are layering violations. Packages without a row (serve-level
// composition roots, experiments, cmd/*) are unconstrained.
//
// The table encodes the architecture's load-bearing edges. In particular:
//
//   - internal/memo is a generic memoization layer and must not know the
//     HTTP service exists (memo -> serve would invert the cache layering);
//   - internal/core is the analysis engine and must not depend on the
//     search strategies built on top of it (core -> mapper);
//   - internal/diag is a leaf so every layer can report through it.
var allowedImports = map[string][]string{
	"repro/internal/diag":     {},
	"repro/internal/arch":     {},
	"repro/internal/workload": {},
	"repro/internal/memo":     {},
	// jobs is a stdlib-only leaf: the server injects the runner, so the
	// job subsystem must never reach back into serve or the mapper.
	"repro/internal/jobs": {},
	// fleet moves jobs and memoized fitness between nodes; the fitness
	// value codec is injected by the composition root, so fleet must never
	// import the mapper (or serve) directly.
	"repro/internal/fleet": {"repro/internal/jobs", "repro/internal/memo"},
	// sched decides which queued job runs next and who may submit; it
	// plugs into the store as a picker callback, so it may see job records
	// but never the runner, the mapper, or the HTTP layer.
	"repro/internal/sched":     {"repro/internal/jobs"},
	"repro/internal/energy":    {"repro/internal/arch"},
	"repro/internal/core":      {"repro/internal/arch", "repro/internal/energy", "repro/internal/workload"},
	"repro/internal/notation":  {"repro/internal/core", "repro/internal/diag", "repro/internal/workload"},
	"repro/internal/dataflows": {"repro/internal/arch", "repro/internal/core", "repro/internal/workload"},
	"repro/internal/check": {
		"repro/internal/arch", "repro/internal/core", "repro/internal/diag",
		"repro/internal/notation", "repro/internal/workload",
	},
	"repro/internal/mapper": {
		"repro/internal/arch", "repro/internal/core", "repro/internal/dataflows",
		"repro/internal/memo", "repro/internal/workload",
	},
	"repro/internal/sim": {
		"repro/internal/arch", "repro/internal/core", "repro/internal/energy",
		"repro/internal/workload",
	},
	"repro/internal/timeloop": {"repro/internal/arch", "repro/internal/energy", "repro/internal/workload"},
	// yamlfe translates Timeloop-style configs into the same triple the
	// notation route produces; it must not reach into serve or check.
	"repro/internal/yamlfe": {
		"repro/internal/arch", "repro/internal/core", "repro/internal/diag",
		"repro/internal/workload",
	},
	// spaceck interprets the legality rules over factor domains; it sits
	// beside the mapper (which consumes its narrowed domains as plain data,
	// never the package) and must not reach into search or serve layers.
	"repro/internal/spaceck": {
		"repro/internal/arch", "repro/internal/check", "repro/internal/core",
		"repro/internal/dataflows", "repro/internal/diag", "repro/internal/workload",
	},
	"repro/internal/graphmodel": {
		"repro/internal/arch", "repro/internal/timeloop", "repro/internal/workload",
	},
}

// Layering rejects internal imports outside the allowlist table. Test files
// are exempt — fixtures and differential tests legitimately reach across
// layers.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the internal package dependency allowlist",
	Run:  runLayering,
}

const internalPrefix = "repro/internal/"

func runLayering(pass *Pass) error {
	allowed, constrained := allowedImports[pass.PkgPath]
	if !constrained {
		return nil
	}
	set := map[string]bool{}
	for _, p := range allowed {
		set[p] = true
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, internalPrefix) || path == pass.PkgPath || set[path] {
				continue
			}
			why := "allowed internal imports: none"
			if len(allowed) > 0 {
				why = "allowed internal imports: " + strings.Join(allowed, ", ")
			}
			pass.Reportf(imp.Path.Pos(), "forbidden import of %s from %s (%s)", path, pass.PkgPath, why)
		}
	}
	return nil
}
