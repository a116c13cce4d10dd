package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"kwsc"
)

// The benchmark's own seeded input generator. It shares no code with the
// program's generators (internal/workload, cmd/kwscd's synthetic corpus), so
// a change there cannot change what this benchmark measures.
//
// Coordinates, rectangle bounds, sphere centres and radii are all multiples
// of 1/grid inside [0, extent]: every sum, difference and square the program
// or the oracle computes on them is exact in float64, so closed-boundary
// decisions agree bit for bit between the two.

const (
	grid   = 1024.0
	extent = 1000.0
)

// newRand returns the generator for one named input stream of a seed, so
// that adding a stream never shifts the draws of another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Input streams.
const (
	streamCorpus uint64 = iota + 1
	streamQueries
	streamOps
	streamHistory
)

// coord draws a dyadic coordinate in [0, extent).
func coord(r *rand.Rand) float64 {
	return float64(r.IntN(int(extent*grid))) / grid
}

// zipf samples keyword ranks 0..n-1 with P(rank i) proportional to
// 1/(i+1)^s by inverse-CDF lookup.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// keyword maps a Zipf rank to its keyword: rank 0 is the most frequent.
func keyword(rank int) kwsc.Keyword { return kwsc.Keyword(rank + 1) }

// corpusSpec fixes the shape of a generated corpus.
type corpusSpec struct {
	Vocab          int     // distinct keywords
	Skew           float64 // Zipf exponent of keyword frequency
	DocMin, DocMax int     // document length, uniform in [DocMin, DocMax]
}

// objectGen draws objects: a uniform dyadic point and a document of
// distinct Zipf-distributed keywords, sorted ascending.
type objectGen struct {
	spec corpusSpec
	z    *zipf
}

func newObjectGen(spec corpusSpec) *objectGen {
	return &objectGen{spec: spec, z: newZipf(spec.Vocab, spec.Skew)}
}

func (g *objectGen) object(r *rand.Rand) kwsc.Object {
	n := g.spec.DocMin + r.IntN(g.spec.DocMax-g.spec.DocMin+1)
	doc := make([]kwsc.Keyword, 0, n)
	for len(doc) < n {
		w := keyword(g.z.rank(r))
		dup := false
		for _, x := range doc {
			if x == w {
				dup = true
				break
			}
		}
		if !dup {
			doc = append(doc, w)
		}
	}
	sort.Slice(doc, func(i, j int) bool { return doc[i] < doc[j] })
	return kwsc.Object{Point: kwsc.Point{coord(r), coord(r)}, Doc: doc}
}

func (g *objectGen) corpus(r *rand.Rand, n int) []kwsc.Object {
	objs := make([]kwsc.Object, n)
	for i := range objs {
		objs[i] = g.object(r)
	}
	return objs
}

// shape is a query region: a closed rectangle, a closed ball, or (both nil)
// all of space.
type shape struct {
	lo, hi []float64 // rectangle, when non-nil
	center []float64 // ball centre, when non-nil
	radius float64
}

func (s shape) contains(p kwsc.Point) bool {
	switch {
	case s.lo != nil:
		for i := range s.lo {
			if p[i] < s.lo[i] || p[i] > s.hi[i] {
				return false
			}
		}
		return true
	case s.center != nil:
		var d2 float64
		for i := range s.center {
			d := p[i] - s.center[i]
			d2 += d * d
		}
		return d2 <= s.radius*s.radius
	}
	return true
}

// rect is the rectangle handed to the program: the query's own rectangle,
// or the whole domain for a keyword-only query.
func (s shape) rect() *kwsc.Rect {
	if s.lo != nil {
		return kwsc.NewRect(s.lo, s.hi)
	}
	return kwsc.NewRect([]float64{0, 0}, []float64{extent, extent})
}

// square returns the dyadic square of the given side centred near (x, y),
// clipped to the domain.
func square(x, y, side float64) shape {
	h := math.Round(side/2*grid) / grid
	clip := func(v float64) float64 { return math.Max(0, math.Min(extent, v)) }
	return shape{
		lo: []float64{clip(x - h), clip(y - h)},
		hi: []float64{clip(x + h), clip(y + h)},
	}
}

// dyadic rounds v to the nearest multiple of 1/grid.
func dyadic(v float64) float64 { return math.Round(v*grid) / grid }

// sideFor is the dyadic side of a square covering frac of the domain.
func sideFor(frac float64) float64 { return dyadic(extent * math.Sqrt(frac)) }

// query is one generated read: a region, k keywords and an optional limit.
type query struct {
	kind  string // mix class, for the README's per-class figures
	shape shape
	ws    []kwsc.Keyword
	limit int
}

// headPair draws two distinct keywords among the head ranks [0, head).
func headPair(r *rand.Rand, head int) []kwsc.Keyword {
	a := r.IntN(head)
	b := r.IntN(head - 1)
	if b >= a {
		b++
	}
	return []kwsc.Keyword{keyword(a), keyword(b)}
}

// docPair draws two distinct keywords of one object's document, preferring
// its rarest ones, so the pair co-occurs at least once in the corpus.
func docPair(r *rand.Rand, doc []kwsc.Keyword) []kwsc.Keyword {
	ws := append([]kwsc.Keyword(nil), doc...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] > ws[j] }) // rarest first
	a := r.IntN(min(3, len(ws)))
	b := r.IntN(len(ws) - 1)
	if b >= a {
		b++
	}
	return []kwsc.Keyword{ws[a], ws[b]}
}

// rarestPair returns the two rarest keywords of a document: a pair that
// co-occurs at least once and seldom more.
func rarestPair(doc []kwsc.Keyword) []kwsc.Keyword {
	n := len(doc)
	return []kwsc.Keyword{doc[n-1], doc[n-2]}
}
