package main

import (
	"math/rand/v2"
	"time"

	"kwsc"
)

// lib-read: a static 2-d ORP-KW index built with NewORPKW's default options,
// queried in-process through CollectInto. The index layer does nearly all
// the work, so an index change shows here at full size.

type libSize struct {
	objects, queries, builds int
}

func libReadSize(quick bool) libSize {
	if quick {
		return libSize{objects: 3000, queries: 200, builds: 1}
	}
	return libSize{objects: 120_000, queries: 3000, builds: 3}
}

var libCorpus = corpusSpec{Vocab: 20_000, Skew: 1.0, DocMin: 4, DocMax: 12}

// libHeadRanks is how many of the most frequent keywords count as head.
const libHeadRanks = 16

// libQueries draws lib-read's query mix over objs: one third of each of
// the three regimes of the paper's §1.2 trade-off between the index and
// the keywords-only posting scan (expression (4) there has a term for
// each). Head-keyword pairs over a small square have long posting lists
// and small output, where the index should win; pairs of an object's rare
// keywords have short lists, where both are cheap; head-keyword pairs over
// a broad square have large output, where both are output-bound. No
// measured traffic weights the regimes, so they get equal shares, as
// cmd/kwsload gives its three query shapes.
func libQueries(r *rand.Rand, objs []kwsc.Object, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		switch r.IntN(3) {
		case 0:
			qs[i] = query{kind: "head", ws: headPair(r, libHeadRanks),
				shape: square(coord(r), coord(r), sideFor(0.0005+0.0015*r.Float64()))}
		case 1:
			o := objs[r.IntN(len(objs))]
			qs[i] = query{kind: "tail", ws: docPair(r, o.Doc),
				shape: square(o.Point[0], o.Point[1], sideFor(0.01+0.04*r.Float64()))}
		default:
			qs[i] = query{kind: "broad", ws: headPair(r, libHeadRanks),
				shape: square(coord(r), coord(r), sideFor(0.1+0.2*r.Float64()))}
		}
	}
	return qs
}

func runLibRead(o opts) (*outcome, error) {
	size := libReadSize(o.quick)
	gen := newObjectGen(libCorpus)
	objs := gen.corpus(newRand(o.seed, streamCorpus), size.objects)
	qs := libQueries(newRand(o.seed, streamQueries), objs, size.queries)
	ref := newOracle()
	for i, obj := range objs {
		ref.add(int64(i), obj)
	}
	want := make([][]int64, len(qs))
	rects := make([]*kwsc.Rect, len(qs))
	for i, q := range qs {
		want[i] = ref.answer(q.shape, q.ws)
		rects[i] = q.shape.rect()
	}
	ref = nil

	// Set-up: dataset validation plus index build, repeated; the median
	// is reported and the last index is kept.
	base := liveHeap()
	var ix *kwsc.ORPKW
	var ds *kwsc.Dataset
	var setups, builds []float64
	for b := 0; b < size.builds; b++ {
		ix, ds = nil, nil
		liveHeap()
		var err error
		t0 := time.Now()
		ds, err = kwsc.NewDataset(objs)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ix, err = kwsc.NewORPKW(ds, 2)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, time.Since(t1).Seconds())
	}
	heap := float64(liveHeap() - base)

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rec recorder
	var nodes, crossing, examined, reported float64
	var nq float64
	buf := make([]int32, 0, 1024)
	pass := func(timed bool) {
		if timed {
			rec.begin()
		}
		for i := range qs {
			t := time.Now()
			ids, st, err := ix.CollectInto(rects[i], qs[i].ws, kwsc.QueryOpts{}, buf[:0])
			d := time.Since(t)
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			buf = ids
			if timed {
				rec.read(d)
				nodes += float64(st.NodesVisited)
				crossing += float64(st.CrossingNodes)
				examined += float64(st.PivotChecks + st.MatScanned)
				reported += float64(st.Reported)
				nq++
			}
			if err := checkExact(ids, want[i]); err != nil {
				out.mismatch("query %d (%s %v): %v", i, qs[i].kind, qs[i].ws, err)
			}
		}
	}
	defer pinClient()()
	pass(false) // warm-up round, checked but not timed
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rec.rounds) == 0 || time.Now().Before(deadline) {
		pass(true)
	}

	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = rec.opsPerSec()
	out.e2e["read_p50_us"] = rec.readP(0.50)
	out.e2e["read_p95_us"] = rec.readP(0.95)
	out.e2e["n.read_p99_us"] = rec.readP(0.99)
	out.e2e["heap_bytes"] = heap
	total, perRound := rec.samples(false)
	out.e2e["n.read_samples"] = float64(total)
	out.e2e["n.read_samples_per_round"] = float64(perRound)
	out.e2e["n.rounds"] = float64(len(rec.rounds))

	if o.trace {
		out.layer["core.build_s"] = median(builds)
		out.layer["core.space_words"] = float64(ix.Space().TotalWords(64))
		out.layer["core.query_us"] = out.e2e["read_p50_us"]
		out.layer["core.nodes_per_query"] = nodes / nq
		out.layer["core.crossing_per_query"] = crossing / nq
		out.layer["core.examined_per_query"] = examined / nq
		out.layer["core.reported_per_query"] = reported / nq
		out.layer["core.useful_ratio"] = ratio(reported, examined)

		// Allocations over one unchecked pass.
		m0 := mallocs()
		for i := range qs {
			buf, _, _ = ix.CollectInto(rects[i], qs[i].ws, kwsc.QueryOpts{}, buf[:0])
		}
		out.layer["core.allocs_per_query"] = float64(mallocs()-m0) / float64(len(qs))

		// The keywords-only posting scan on the same queries: the
		// baseline the index is meant to beat.
		inv, err := kwsc.NewInvertedIndex(ds)
		if err != nil {
			return nil, err
		}
		// Index and baseline timed side by side, query by query, for the
		// per-class figures of the README (printed to standard error).
		var lat, ixLat []float64
		for i := range qs {
			t := time.Now()
			ids := inv.KeywordsOnly(rects[i], qs[i].ws)
			lat = append(lat, us(time.Since(t)))
			out.attempted++
			if err := checkExact(ids, want[i]); err != nil {
				out.mismatch("baseline query %d: %v", i, err)
			}
			t = time.Now()
			buf, _, _ = ix.CollectInto(rects[i], qs[i].ws, kwsc.QueryOpts{}, buf[:0])
			ixLat = append(ixLat, us(time.Since(t)))
		}
		out.layer["core.baseline_query_us"] = percentile(lat, 0.5)
		for _, kind := range []string{"head", "tail", "broad"} {
			var kl, kx []float64
			var outN float64
			for i, q := range qs {
				if q.kind == kind {
					kl = append(kl, lat[i])
					kx = append(kx, ixLat[i])
					outN += float64(len(want[i]))
				}
			}
			out.layer["n."+kind+"_baseline_p50_us"] = percentile(kl, 0.5)
			out.layer["n."+kind+"_index_p50_us"] = percentile(kx, 0.5)
			out.layer["n."+kind+"_ids_per_query"] = outN / float64(len(kl))
		}
	}
	return out, nil
}
