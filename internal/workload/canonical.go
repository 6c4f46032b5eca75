package workload

import (
	"sort"
	"strconv"
)

// CanonicalGraph dumps everything about a workload graph that affects the
// analysis: operators in graph order with their full iteration spaces and
// affine accesses, and tensors (sorted) with shape, element size and
// density. Cache layers (the serve subsystem's design-point keys, the
// mapper's fitness memoization) hash this text so that equal graphs share
// entries regardless of how a request spelled them.
func CanonicalGraph(g *Graph) string { return string(AppendCanonicalGraph(nil, g)) }

// AppendCanonicalGraph appends CanonicalGraph's rendering of g to b. It is
// the one renderer of the dump; the canonical keys hash its output
// directly.
func AppendCanonicalGraph(b []byte, g *Graph) []byte {
	b = append(b, "name "...)
	b = append(b, g.Name...)
	b = append(b, '\n')
	b = appendOps(b, g, true)
	for _, name := range sortedTensorNames(g) {
		t := g.Tensors[name]
		b = append(b, "tensor "...)
		b = append(b, t.Name...)
		b = append(b, " dims=["...)
		for i, d := range t.Dims {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, "] elem="...)
		b = strconv.AppendInt(b, int64(t.ElemBytes), 10)
		b = append(b, " density="...)
		b = strconv.AppendFloat(b, t.EffDensity(), 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// AppendStructureSignature appends the SHAPE-FREE structure of a graph to
// b: operators in graph order with kind, iteration-dimension names (sizes
// dropped), and affine accesses, plus each tensor's rank and element
// width. Two graphs with the same signature are the same computation over
// different tensor sizes — e.g. Bert-S and Bert-L attention. The warm-
// start library keys donor checkpoints by this text (hashed together
// with the architecture's structure), so a search can seed its
// population from a structurally identical design point without ever
// conflating the shape-specific caches, which keep using CanonicalGraph.
func AppendStructureSignature(b []byte, g *Graph) []byte {
	b = appendOps(b, g, false)
	for _, name := range sortedTensorNames(g) {
		t := g.Tensors[name]
		b = append(b, "tensor "...)
		b = append(b, t.Name...)
		b = append(b, " rank="...)
		b = strconv.AppendInt(b, int64(len(t.Dims)), 10)
		b = append(b, " elem="...)
		b = strconv.AppendInt(b, int64(t.ElemBytes), 10)
		b = append(b, '\n')
	}
	return b
}

// appendOps appends one line per operator, in graph order: name, kind,
// iteration dims (with their sizes when sizes is set), reads and write.
func appendOps(b []byte, g *Graph, sizes bool) []byte {
	for _, op := range g.Ops {
		b = append(b, "op "...)
		b = append(b, op.Name...)
		b = append(b, " kind="...)
		b = append(b, op.Kind.String()...)
		b = append(b, " dims="...)
		for i, d := range op.Dims {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, d.Name...)
			if sizes {
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(d.Size), 10)
			}
		}
		b = append(b, " reads="...)
		for i, r := range op.Reads {
			if i > 0 {
				b = append(b, ';')
			}
			b = r.appendTo(b)
		}
		b = append(b, " write="...)
		b = op.Write.appendTo(b)
		b = append(b, '\n')
	}
	return b
}

// sortedTensorNames lists g's tensor names in sorted order, the order both
// renderings dump tensors in.
func sortedTensorNames(g *Graph) []string {
	names := make([]string, 0, len(g.Tensors))
	for name := range g.Tensors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
