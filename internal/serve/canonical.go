package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/workload"
)

// Canonical keys identify design points independently of how a request
// spelled them: the architecture is rendered through arch.AppendSpec, the
// workload graph through a sorted structural dump, and the mapping through
// the tile-centric notation — so a design point reached via a named
// template with explicit factors and the same point written directly in
// the DSL hash to the same key and share one cache entry. The key is the
// hex SHA-256 of a tag line followed by that canonical text.

// Tag lines, one per key family.
var (
	evaluateTag = []byte("tileflow/v1/evaluate\n")
	tunedTag    = []byte("tileflow/v1/evaluate-tuned\n")
	searchTag   = []byte("tileflow/v1/search\n")
	programTag  = []byte("tileflow/v1/program\n")
	warmTag     = []byte("tileflow/v1/warmstart\n")
)

// keyText is the canonical text of one design point: its "arch:\n…graph:\n…"
// block, rendered once, followed by the tail of the key hashed last. Each
// key appends its own tail after the block and hashes the buffer, so a
// request that needs both its evaluate key and its Program key renders the
// architecture and the workload graph once. A keyText is not safe for
// concurrent use.
type keyText struct {
	buf  []byte
	head int // length of the arch/graph block
}

func newKeyText(spec *arch.Spec, g *workload.Graph) *keyText {
	// Catalog points' texts run to ~2.4 KB, so their keys never regrow it.
	b := make([]byte, 0, 4096)
	b = append(b, "arch:\n"...)
	b = arch.AppendSpec(b, spec)
	b = append(b, "graph:\n"...)
	b = workload.AppendCanonicalGraph(b, g)
	return &keyText{buf: b, head: len(b)}
}

// EvaluateKey is the canonical cache key for one fully specified design
// point (a concrete analysis tree).
func EvaluateKey(spec *arch.Spec, g *workload.Graph, root *core.Node, opts core.Options) string {
	return newKeyText(spec, g).evaluate(root, opts)
}

// evaluate is EvaluateKey's digest.
func (k *keyText) evaluate(root *core.Node, opts core.Options) string {
	b := append(k.options(opts), "mapping:\n"...)
	return k.sum(evaluateTag, notation.AppendPrint(b, root))
}

// tuned is the canonical key for a template request whose factors are
// chosen by the mapper: the mapping is determined by (template, budget,
// seed) rather than a concrete tree.
func (k *keyText) tuned(dfName string, tune int, seed int64, opts core.Options) string {
	b := append(k.options(opts), "template: "...)
	b = append(b, dfName...)
	b = append(b, " tune="...)
	b = strconv.AppendInt(b, int64(tune), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, seed, 10)
	return k.sum(tunedTag, append(b, '\n'))
}

// search is the canonical key for a 3D design-space search request.
func (k *keyText) search(pop, gens, tileRounds, topK int, seed int64, opts core.Options) string {
	b := append(k.options(opts), "search: pop="...)
	b = strconv.AppendInt(b, int64(pop), 10)
	b = append(b, " gens="...)
	b = strconv.AppendInt(b, int64(gens), 10)
	b = append(b, " tile="...)
	b = strconv.AppendInt(b, int64(tileRounds), 10)
	b = append(b, " topk="...)
	b = strconv.AppendInt(b, int64(topK), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, seed, 10)
	return k.sum(searchTag, append(b, '\n'))
}

// program is the canonical key of a compiled core.Program: the
// structure-only prefix of a design point — architecture, workload graph
// and the tree's structure signature, with no tiling factors and no
// evaluation options (a Program is options-independent). Requests that
// differ only in tiling or options share one compiled Program under it.
func (k *keyText) program(root *core.Node) string {
	b := append(k.buf[:k.head], "structure:\n"...)
	return k.sum(programTag, core.AppendStructureSignature(b, root))
}

// options starts a tail with the evaluation options line.
func (k *keyText) options(opts core.Options) []byte {
	b := append(k.buf[:k.head], "options: "...)
	return append(opts.AppendKey(b), '\n')
}

// sum digests tag and b (the block plus a tail), keeping b's storage for
// the next key's tail.
func (k *keyText) sum(tag, b []byte) string {
	k.buf = b
	return digest(tag, b)
}

// digest is the hex SHA-256 of tag followed by text.
func digest(tag, text []byte) string {
	h := sha256.New()
	h.Write(tag)
	h.Write(text)
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// warmKey is the structure-only canonical prefix used by the warm-start
// checkpoint library: architecture levels (names/fanout, no capacities)
// plus the workload graph's operator/tensor structure (dimension names,
// no sizes). Two design points that differ only in tensor shapes —
// e.g. Bert-S vs Bert-L attention on the same machine — share one key,
// so a finished search on one can seed the GA population of the other.
// Anything affecting fitness (shapes, capacities, options, seed) is
// deliberately excluded: only encodings are transferred under this key,
// never fitness values.
func warmKey(spec *arch.Spec, g *workload.Graph) string {
	b := make([]byte, 0, 1024)
	b = append(b, "arch-structure:\n"...)
	b = arch.AppendStructureSignature(b, spec)
	b = append(b, "graph-structure:\n"...)
	return digest(warmTag, workload.AppendStructureSignature(b, g))
}
