package serve

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Test-only views of the package's unexported canonical keys, for the
// external golden test in package serve_test (conformance imports serve,
// so a test that draws points from conformance.Generate cannot live inside
// the package).

var WarmKey = warmKey

func ProgramKey(spec *arch.Spec, g *workload.Graph, root *core.Node) string {
	return newKeyText(spec, g).program(root)
}

func TunedKey(spec *arch.Spec, g *workload.Graph, dfName string, tune int, seed int64, opts core.Options) string {
	return newKeyText(spec, g).tuned(dfName, tune, seed, opts)
}

func SearchKey(spec *arch.Spec, g *workload.Graph, pop, gens, tileRounds, topK int, seed int64, opts core.Options) string {
	return newKeyText(spec, g).search(pop, gens, tileRounds, topK, seed, opts)
}
