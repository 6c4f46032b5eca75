package serve

import (
	"context"
	"testing"
)

var benchReq = EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}

// BenchmarkEvaluateCold measures the full pipeline with the cache
// bypassed: resolve, canonical key, tree evaluation, response build.
func BenchmarkEvaluateCold(b *testing.B) {
	s := New(Config{})
	req := benchReq
	req.NoCache = true
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.evaluateOne(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCached measures the repeat-request path: request key
// lookup, cache lookup, pre-serialized response. Compare against
// BenchmarkEvaluateCold for the memoization speedup.
func BenchmarkEvaluateCached(b *testing.B) {
	s := New(Config{})
	ctx := context.Background()
	req := benchReq
	if _, _, err := s.evaluateOne(ctx, &req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _, err := s.evaluateOne(ctx, &req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("request not served from cache")
		}
	}
}

// canonicalKeys computes the two keys one /v1/evaluate miss needs — the
// evaluate key and the Program key — from a fresh rendering of the design
// point, as a new request does.
func canonicalKeys(dp *designPoint) (string, string) {
	dp.text = nil
	return dp.key(), dp.keys().program(dp.root)
}

func benchPoint(tb testing.TB) *designPoint {
	dp, err := resolve(&benchReq)
	if err != nil {
		tb.Fatal(err)
	}
	return dp
}

// BenchmarkCanonicalKeys measures the canonical-key stage of a miss: both
// keys of FLAT-RGran Bert-S on edge, sharing one arch/graph rendering.
func BenchmarkCanonicalKeys(b *testing.B) {
	dp := benchPoint(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalKeys(dp)
	}
}

// TestCanonicalKeyAllocs bounds the allocations of both keys of a miss.
// The renderers append into one buffer with strconv, so the count is a
// handful of buffer, hash and string allocations, independent of the size
// of the architecture, graph and tree.
func TestCanonicalKeyAllocs(t *testing.T) {
	dp := benchPoint(t)
	if allocs := testing.AllocsPerRun(50, func() { canonicalKeys(dp) }); allocs > 16 {
		t.Errorf("both canonical keys: %.0f allocs, want <= 16", allocs)
	}
}
