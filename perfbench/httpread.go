package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"kwsc"
	"kwsc/internal/serve"
)

// http-read: kwscd's static service — serve.NewStatic with kwscd's default
// shard count and hash partitioning, no admission limits — mounted on a
// loopback listener in this process and driven by one keep-alive client
// with /v1/query JSON. The edge (net/http, JSON, admission, scatter, merge,
// encode) does most of the work, so a serve change shows here.

type httpSize struct {
	objects, queries, builds int
}

func httpReadSize(quick bool) httpSize {
	if quick {
		return httpSize{objects: 2000, queries: 200, builds: 1}
	}
	return httpSize{objects: 50_000, queries: 2000, builds: 3}
}

// kwscdShards is cmd/kwscd's default -shards.
const kwscdShards = 4

var httpCorpus = corpusSpec{Vocab: 5000, Skew: 1.0, DocMin: 3, DocMax: 9}

// httpLimit is the limit a limited request carries.
const httpLimit = 5

// httpQueries draws http-read's mix the way cmd/kwsload's randQuery does:
// one third rectangles of side 5–45% of the domain's, one third balls of
// radius 5–25% of it, one third keyword-only. kwsload draws its keywords
// and regions at random, so most of its answers are empty; here each
// request is built around a random object — its region centred on the
// object, its keywords a pair of the object's rare ones (keyword-only: its
// two rarest) — so every answer holds at least that object and outputs
// stay small. kwsload sends its -limit on every request or on none; here
// every other rectangle and keyword-only request carries limit 5, so both
// settings are in the mix. Balls carry no limit: the shards apply a limit
// to the ball's bounding box before filtering by the ball, which returns
// fewer than min(limit, |answer|) ids (see CHANGES.md), and the mix keeps
// to requests the program answers correctly.
func httpQueries(r *rand.Rand, objs []kwsc.Object, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		o := objs[r.IntN(len(objs))]
		x, y := o.Point[0], o.Point[1]
		switch r.IntN(3) {
		case 0:
			qs[i] = query{kind: "rect", ws: docPair(r, o.Doc),
				shape: square(x, y, dyadic(extent*(0.05+0.4*r.Float64())))}
		case 1:
			qs[i] = query{kind: "sphere", ws: docPair(r, o.Doc),
				shape: shape{center: []float64{x, y}, radius: dyadic(extent * (0.05 + 0.2*r.Float64()))}}
		default:
			qs[i] = query{kind: "keywords", ws: rarestPair(o.Doc)}
		}
		if i%2 == 1 && qs[i].shape.center == nil {
			qs[i].limit = httpLimit
		}
	}
	return qs
}

// wireRequest is the /v1/query body for q.
func wireRequest(q query) *kwsc.QueryRequest {
	req := &kwsc.QueryRequest{Keywords: q.ws, Limit: q.limit}
	switch {
	case q.shape.lo != nil:
		req.Rect = &kwsc.RectWire{Lo: q.shape.lo, Hi: q.shape.hi}
	case q.shape.center != nil:
		req.Sphere = &kwsc.SphereWire{Center: q.shape.center, Radius: q.shape.radius}
	}
	return req
}

// checkResponse checks one /v1/query answer against the reference.
func checkResponse(resp *kwsc.QueryResponse, q query, want []int64) error {
	if resp.Count != len(resp.IDs) {
		return fmt.Errorf("count %d for %d ids", resp.Count, len(resp.IDs))
	}
	if q.limit > 0 {
		return checkLimited(resp.IDs, resp.Truncated, want, q.limit)
	}
	if resp.Truncated {
		return fmt.Errorf("unlimited answer marked truncated")
	}
	for i := 1; i < len(resp.IDs); i++ {
		if resp.IDs[i] <= resp.IDs[i-1] {
			return fmt.Errorf("ids not strictly ascending at rank %d", i)
		}
	}
	return checkExact(resp.IDs, want)
}

// loopback serves h on 127.0.0.1 until stop returns; stop waits for the
// serving goroutine to exit.
func loopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h} // no timeouts, as in cmd/kwscd
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func runHTTPRead(o opts) (*outcome, error) {
	size := httpReadSize(o.quick)
	gen := newObjectGen(httpCorpus)
	objs := gen.corpus(newRand(o.seed, streamCorpus), size.objects)
	qs := httpQueries(newRand(o.seed, streamQueries), objs, size.queries)
	ref := newOracle()
	for i, obj := range objs {
		ref.add(int64(i), obj)
	}
	want := make([][]int64, len(qs))
	bodies := make([][]byte, len(qs))
	reqs := make([]*kwsc.QueryRequest, len(qs))
	for i, q := range qs {
		want[i] = ref.answer(q.shape, q.ws)
		reqs[i] = wireRequest(q)
		b, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	ref = nil

	base := liveHeap()
	var srv *serve.Server
	var setups []float64
	cfg := serve.Config{Shards: kwscdShards, Partition: serve.PartitionHash, K: 2}
	for b := 0; b < size.builds; b++ {
		srv = nil
		liveHeap()
		var err error
		d := timed(func() { srv, err = serve.NewStatic(objs, cfg) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.Close()
	heap := float64(liveHeap() - base)

	handler := srv.Handler()
	url, stop, err := loopback(handler)
	if err != nil {
		return nil, err
	}
	defer stop()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var body bytes.Buffer

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rec recorder
	var respBytes, ids, nresp float64
	var resp kwsc.QueryResponse
	// post sends request i over the client's one keep-alive connection and
	// times it until the whole response body has been read.
	post := func(i int) ([]byte, time.Duration, error) {
		req, err := http.NewRequest(http.MethodPost, url+kwsc.PathQuery, bytes.NewReader(bodies[i]))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		body.Reset()
		t := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, 0, err
		}
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		d := time.Since(t)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body.Bytes())
		}
		return body.Bytes(), d, err
	}
	pass := func(timed bool) {
		if timed {
			rec.begin()
		}
		for i := range qs {
			body, d, err := post(i)
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			if timed {
				rec.read(d)
			}
			resp = kwsc.QueryResponse{IDs: resp.IDs[:0], Shards: resp.Shards[:0]}
			if err := json.Unmarshal(body, &resp); err != nil {
				out.mismatch("query %d: undecodable response: %v", i, err)
				continue
			}
			respBytes += float64(len(body))
			ids += float64(len(resp.IDs))
			nresp++
			if err := checkResponse(&resp, qs[i], want[i]); err != nil {
				out.mismatch("query %d (%s %v limit %d): %v", i, qs[i].kind, qs[i].ws, qs[i].limit, err)
			}
		}
	}
	pass(false)
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
		if err := traceServe(out, srv, handler, qs, reqs, bodies, want); err != nil {
			return nil, err
		}
		out.layer["serve.roundtrip_us"] = out.e2e["read_p50_us"]
		out.layer["serve.resp_bytes"] = respBytes / nresp
		out.layer["serve.ids_per_query"] = ids / nresp
		out.layer["serve.transport_self_us"] = out.layer["serve.roundtrip_us"] - out.layer["serve.handler_us"]
		out.layer["serve.handler_self_us"] = out.layer["serve.handler_us"] - out.layer["serve.query_us"]
	}
	return out, nil
}

// traceServe times the same requests one layer down twice: through the
// handler on in-memory requests (no socket), and through Server.Query (no
// HTTP or JSON). Each pass counts its allocations; the Server.Query pass
// also reads the shard index time from the registry.
func traceServe(out *outcome, srv *serve.Server, h http.Handler, qs []query, reqs []*kwsc.QueryRequest, bodies [][]byte, want [][]int64) error {
	n := len(qs)
	hreqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range hreqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, kwsc.PathQuery, bytes.NewReader(bodies[i]))
		hreqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	lat := make([]float64, n)
	m0 := mallocs()
	for i := range hreqs {
		t := time.Now()
		h.ServeHTTP(recs[i], hreqs[i])
		lat[i] = us(time.Since(t))
	}
	out.layer["serve.handler_allocs_per_query"] = float64(mallocs()-m0) / float64(n)
	out.layer["serve.handler_us"] = percentile(lat, 0.5)
	for i, rec := range recs {
		var resp kwsc.QueryResponse
		out.attempted++
		if rec.Code != http.StatusOK {
			out.failed++
			continue
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			out.mismatch("handler query %d: %v", i, err)
			continue
		}
		if err := checkResponse(&resp, qs[i], want[i]); err != nil {
			out.mismatch("handler query %d: %v", i, err)
		}
	}

	resps := make([]*kwsc.QueryResponse, n)
	errs := make([]error, n)
	r0 := snap()
	m0 = mallocs()
	for i := range reqs {
		t := time.Now()
		resps[i], errs[i] = srv.Query(reqs[i], false)
		lat[i] = us(time.Since(t))
	}
	out.layer["serve.allocs_per_query"] = float64(mallocs()-m0) / float64(n)
	_, indexNs := r0.histTo(snap(), "kwsc_query_latency_ns")
	out.layer["serve.index_us"] = indexNs / 1e3 / float64(n)
	out.layer["serve.query_us"] = percentile(lat, 0.5)
	for i := range resps {
		out.attempted++
		if errs[i] != nil {
			out.failed++
			continue
		}
		if err := checkResponse(resps[i], qs[i], want[i]); err != nil {
			out.mismatch("Server.Query %d: %v", i, err)
		}
	}
	return nil
}
