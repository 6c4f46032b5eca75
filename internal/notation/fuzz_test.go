package notation

import (
	"testing"
)

// FuzzParseRoundTrip checks that printing is a fixpoint of parsing: for any
// input the parser accepts, Print(Parse(src)) must itself parse, and
// re-printing must reproduce it byte-for-byte. This is the property the
// conformance harness and the evaluation service's canonical cache keys
// rely on.
func FuzzParseRoundTrip(f *testing.F) {
	g := sec42Graph()
	seeds := []string{
		sec42Source,
		"leaf t = op A { i:32, l:64, k:32 }\ntile root @L2 = { i:1 } (t)\n",
		"leaf x = op B { Sp(i:4), i:8, l:64 }\ntile r @L1 = { } (x)\n",
		"leaf a = op A { i:32, l:64, k:32 }\nleaf b = op B { i:32, l:64 }\ntile f @L1 = { } (a, b)\ntile r @L2 = { } (f)\nbind Para(a, b)\n",
		"# comment\nleaf t = op C { i:32, j:64, l:64 }\ntile r @L2 = { } (t)",
		"tile r @L2 = { } ()",     // invalid: no children
		"leaf t = op Zzz { i:2 }", // invalid: unknown op
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := Parse(src, g)
		if err != nil {
			return // invalid inputs are out of scope; only accepted trees must round-trip
		}
		printed := Print(root)
		root2, err := Parse(printed, g)
		if err != nil {
			t.Fatalf("printed form no longer parses: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		if again := Print(root2); again != printed {
			t.Fatalf("print∘parse is not a fixpoint\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
	})
}

// FuzzParseSourceDiagnostics checks the positioned front-end's invariants
// on arbitrary input: it never panics, its spans stay inside the source,
// the root is nil exactly when an error diagnostic was reported, and the
// fail-fast Parse wrapper agrees with it about validity.
func FuzzParseSourceDiagnostics(f *testing.F) {
	g := sec42Graph()
	seeds := []string{
		sec42Source,
		// Positioned-error seeds: each trips a specific coded diagnostic at
		// a known token.
		"leaf t = op Zzz { i:2 }",                                           // TF-NAME-001 at "Zzz"
		"leaf t = op A { i=2 }",                                             // TF-PARSE-004 at "i=2"
		"leaf t = op A { i:0 }",                                             // TF-PARSE-004 at "0"
		"leaf t = op A { i:2 }\nleaf t = op B { i:2 }",                      // TF-NAME-002 at second "t"
		"tile r @L1 = { i:2 } (nope)",                                       // TF-NAME-003 at "nope"
		"tile r @Lx = { i:2 } (t)",                                          // TF-PARSE-003 at "@Lx"
		"loop t = op A { i:2 }",                                             // TF-PARSE-001 whole line
		sec42Source + "bind Zip(T0_0, T1_0)",                                // TF-BIND-001 at "Zip"
		sec42Source + "bind Para(T0_0, T2_0)",                               // TF-BIND-004
		"leaf a = op A { i:2 }\ntile p @L1 = { } (a)\ntile q @L1 = { } (a)", // TF-NAME-004
		"leaf t1 = op A { i:2 }\nleaf t2 = op B { i:2 }",                    // TF-NAME-005 unpositioned
		"",
		"leaf",
		"tile x @L1 = { Sp(i:2), } (",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, sm, diags := ParseSource(src, g)
		if (root == nil) != diags.HasErrors() {
			t.Fatalf("root nil = %v but HasErrors = %v for %q", root == nil, diags.HasErrors(), src)
		}
		if _, err := Parse(src, g); (err != nil) != diags.HasErrors() {
			t.Fatalf("Parse and ParseSource disagree on %q: err=%v diags=%v", src, err, diags)
		}
		for _, d := range diags {
			if d.Code == "" {
				t.Fatalf("diagnostic without code: %+v", d)
			}
			if d.Span.IsZero() {
				continue
			}
			s, e := d.Span.Start, d.Span.End
			if s.Offset < 0 || e.Offset > len(src) || e.Offset < s.Offset {
				t.Fatalf("span %v out of bounds for %d-byte source (%q)", d.Span, len(src), src)
			}
			if s.Line < 1 || s.Col < 1 {
				t.Fatalf("span %v has invalid line/col", d.Span)
			}
		}
		if root != nil {
			if sm == nil {
				t.Fatal("accepted parse returned nil SourceMap")
			}
			rootSpan := sm.Span(root.Name)
			if rootSpan.IsZero() {
				t.Fatalf("no span for root %q", root.Name)
			}
			if got := src[rootSpan.Start.Offset:rootSpan.End.Offset]; got != root.Name {
				t.Fatalf("root span covers %q, want %q", got, root.Name)
			}
		}
	})
}
