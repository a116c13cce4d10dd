package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"kwsc"
	"kwsc/internal/core"
	"kwsc/internal/repl"
)

// durable-reopen: set-up writes a seeded history to a durable directory —
// several checkpoints plus a WAL tail. Each round of the timed phase then
// restarts from it: paged recovery over the pread buffer pool, capped below
// the checkpoint's page count; durable-churn's read mix on the recovered
// index; and a cold-started repl follower fed by a loopback
// Shipper until it has applied the whole history. The working set exceeds
// the program's own cache, and the pager, recovery and replication all run.

type reopenSize struct {
	ckptEvery, checkpoints, tail, reads, builds int
}

func reopenSizeFor(quick bool) reopenSize {
	if quick {
		return reopenSize{ckptEvery: 300, checkpoints: 3, tail: 100, reads: 50, builds: 1}
	}
	return reopenSize{ckptEvery: 8000, checkpoints: 3, tail: 3000, reads: 3000, builds: 3}
}

func (s reopenSize) history() int { return s.ckptEvery*s.checkpoints + s.tail }

// poolCapPages bounds the pread buffer pool of the recovered base; the
// checkpoint it serves spans several times as many pages.
const poolCapPages = 64

// reopenInsertShare is the history's share of inserts, per mille; the rest
// delete a live object. Chosen without measured traffic: the live set
// grows, as a corpus being built does.
const reopenInsertShare = 800

// history is a pre-drawn sequence of writes: ops[i] >= 0 inserts
// objs[ops[i]], ops[i] < 0 deletes the live object inserted as
// objs[-ops[i]-1]. live holds the ordinals of the objects left live, in
// ascending order.
type history struct {
	objs []kwsc.Object
	ops  []int
	live []int
}

// drawHistory draws the seeded history: inserts, and deletes of a random
// live object.
func drawHistory(gen *objectGen, seed uint64, n int) history {
	var h history
	r := newRand(seed, streamHistory)
	var live []int       // ordinals of live objects, in draw order
	pos := map[int]int{} // ordinal -> index in live
	for i := 0; i < n; i++ {
		if len(live) > 0 && r.IntN(1000) >= reopenInsertShare {
			j := r.IntN(len(live))
			victim := live[j]
			h.ops = append(h.ops, -victim-1)
			last := live[len(live)-1]
			live[j], pos[last] = last, j
			live = live[:len(live)-1]
			delete(pos, victim)
			continue
		}
		pos[len(h.objs)] = len(live)
		live = append(live, len(h.objs))
		h.ops = append(h.ops, len(h.objs))
		h.objs = append(h.objs, gen.object(r))
	}
	h.live = append([]int(nil), live...)
	sort.Ints(h.live)
	return h
}

// writeHistory writes h into dir without fsync (the bytes on disk are the
// same as under any policy), storing each insert's handle in handles (one
// per object of h), and returns the last sequence number. Only calls into
// the program run here, so the caller can time it as set-up.
func writeHistory(dir string, h history, handles []int64, ckptEvery int) (uint64, error) {
	d, err := kwsc.OpenDurable(dir, 2, 2, kwsc.WithFsyncPolicy(kwsc.FsyncNone),
		kwsc.WithAutoCheckpoint(ckptEvery))
	if err != nil {
		return 0, err
	}
	for _, op := range h.ops {
		if op < 0 {
			if _, err := d.Delete(handles[-op-1]); err != nil {
				d.Close()
				return 0, err
			}
			continue
		}
		if handles[op], err = d.Insert(h.objs[op]); err != nil {
			d.Close()
			return 0, err
		}
	}
	last := d.LastSeq()
	return last, d.Close()
}

// reopenReads draws the read mix on the recovered index: durable-churn's.
// Its head-keyword pairs have the long posting lists the paged base scans.
func reopenReads(r *rand.Rand, st *churnState, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = churnRead(r, st.live, st.ref)
	}
	return qs
}

func runDurableReopen(o opts) (*outcome, error) {
	size := reopenSizeFor(o.quick)
	hist := drawHistory(newObjectGen(churnCorpus), o.seed, size.history())
	handles := make([]int64, len(hist.objs))

	var lastSeq uint64
	var setups []float64
	var dir string
	for b := 0; b < size.builds; b++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(o.work, fmt.Sprintf("history-%d", b))
		var err error
		t := timed(func() { lastSeq, err = writeHistory(dir, hist, handles, size.ckptEvery) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}
	st := &churnState{ref: newOracle(), pos: map[int64]int{}}
	for _, i := range hist.live {
		st.add(handles[i], hist.objs[i])
	}
	ckptBytes, err := newestCheckpointBytes(dir)
	if err != nil {
		return nil, err
	}
	if pages := ckptBytes / 4096; pages <= poolCapPages && !o.quick {
		return nil, fmt.Errorf("checkpoint spans %d pages, not above the pool cap %d", pages, poolCapPages)
	}
	qs := reopenReads(newRand(o.seed, streamQueries), st, size.reads)
	rects := make([]*kwsc.Rect, len(qs))
	want := make([][]int64, len(qs))
	for i, q := range qs {
		rects[i] = q.shape.rect()
		want[i] = st.ref.answer(q.shape, q.ws)
	}

	ship := &repl.Shipper{Dir: dir, Dim: 2, K: 2, LastSeq: func() uint64 { return lastSeq }}
	url, stop, err := loopback(ship.Handler())
	if err != nil {
		return nil, err
	}
	defer stop()

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var rec recorder
	var heap float64
	var recovers, opens, bootstraps, catchups, applyRates, polls, shipBytes, replayed []float64
	var pins, hits, evictions, pinN, pinNs, examined, nreads float64
	paged := kwsc.WithPagedRecovery(kwsc.PagedBaseOptions{CapPages: poolCapPages, NoMmap: true})

	// cycle runs one restart: recover, read, bring up a follower.
	cycle := func(timedRound bool, c int) error {
		var r0 reg
		if o.trace {
			r0 = snap()
		}
		t := time.Now()
		d, err := kwsc.OpenDurable(dir, 2, 2, paged)
		if err != nil {
			return err
		}
		var f *repl.Follower
		closeAll := func() error {
			var ferr error
			if f != nil {
				ferr = f.Close()
			}
			if err := d.Close(); err != nil {
				return err
			}
			return ferr
		}
		probe, _, err := d.Collect(rects[0], qs[0].ws)
		recoverT := time.Since(t)
		out.attempted++
		if err != nil {
			out.failed++
		} else if err := checkExact(probe, want[0]); err != nil {
			out.mismatch("probe after recovery: %v", err)
		}
		if d.Len() != st.ref.live() || d.LastSeq() != lastSeq {
			out.mismatch("recovered Len %d LastSeq %d, want %d and %d", d.Len(), d.LastSeq(), st.ref.live(), lastSeq)
		}
		var r1 reg
		if o.trace {
			r1 = snap()
		}
		if timedRound {
			rec.begin()
			rec.spend(recoverT)
			recovers = append(recovers, recoverT.Seconds())
			if o.trace {
				replayed = append(replayed, r0.counterTo(r1, "kwsc_wal_recovery_replayed_records_total"))
			}
		}

		for i := range qs {
			t := time.Now()
			got, qst, err := d.Collect(rects[i], qs[i].ws)
			dt := time.Since(t)
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			if timedRound {
				rec.read(dt)
				examined += float64(qst.PivotChecks + qst.MatScanned)
				nreads++
			}
			if err := checkExact(got, want[i]); err != nil {
				out.mismatch("read %d on recovered index: %v", i, err)
			}
		}
		var r2 reg
		if o.trace {
			r2 = snap()
			if timedRound {
				h := r1.counterTo(r2, "kwsc_pager_pin_hits_total")
				pins += h + r1.counterTo(r2, "kwsc_pager_pin_misses_total")
				hits += h
				evictions += r1.counterTo(r2, "kwsc_pager_evictions_total")
				n, s := r1.histTo(r2, "kwsc_pager_pin_ns")
				pinN += n
				pinNs += s
			}
		}

		fdir := filepath.Join(o.work, fmt.Sprintf("follower-%d", c))
		defer os.RemoveAll(fdir)
		t = time.Now()
		f, err = repl.OpenFollower(repl.FollowerConfig{
			Dir: fdir, Primary: url, Dim: 2, K: 2,
			WALOptions: []kwsc.DurableOption{kwsc.WithFsyncPolicy(kwsc.FsyncInterval)},
		})
		if err != nil {
			closeAll()
			return err
		}
		boot := time.Since(t)
		booted := f.AppliedSeq()
		n := 0
		for f.AppliedSeq() < lastSeq {
			if _, err := f.Poll(); err != nil {
				closeAll()
				return fmt.Errorf("follower poll: %w", err)
			}
			if n++; n > 100_000 {
				closeAll()
				return fmt.Errorf("follower stuck at seq %d of %d", f.AppliedSeq(), lastSeq)
			}
		}
		catchup := time.Since(t)
		out.attempted++
		if f.AppliedSeq() != lastSeq || f.Durable().Len() != st.ref.live() {
			out.mismatch("follower at seq %d with %d live, want %d and %d",
				f.AppliedSeq(), f.Durable().Len(), lastSeq, st.ref.live())
		}
		for i := 0; i < len(qs); i += 16 {
			got, _, err := f.Durable().Collect(rects[i], qs[i].ws)
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			if err := checkExact(got, want[i]); err != nil {
				out.mismatch("follower read %d: %v", i, err)
			}
		}
		if timedRound {
			rec.spend(catchup)
			bootstraps = append(bootstraps, boot.Seconds())
			catchups = append(catchups, catchup.Seconds())
			polls = append(polls, float64(n))
			applyRates = append(applyRates, ratio(float64(f.AppliedSeq()-booted), (catchup-boot).Seconds()))
			if o.trace {
				shipBytes = append(shipBytes, r2.counterTo(snap(), "kwsc_repl_ship_bytes_total"))
			}
		}
		if c > 0 {
			return closeAll()
		}
		h1 := liveHeap()
		if err := closeAll(); err != nil {
			return err
		}
		d, f = nil, nil
		heap = float64(h1) - float64(liveHeap())
		return nil
	}

	defer pinClient()()
	if err := cycle(false, 0); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for c := 1; len(rec.rounds) == 0 || time.Now().Before(deadline); c++ {
		if err := cycle(true, c); err != nil {
			return nil, err
		}
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
	out.e2e["n.checkpoint_pages"] = float64(ckptBytes) / 4096
	out.e2e["n.history_ops"] = float64(lastSeq)

	if o.trace {
		for range recovers {
			path, err := newestCheckpoint(dir)
			if err != nil {
				return nil, err
			}
			var b *core.PagedBase
			t := timed(func() { b, err = core.OpenPagedBase(path, core.PagedBaseOptions{CapPages: poolCapPages, NoMmap: true}) })
			if err != nil {
				return nil, err
			}
			b.Close()
			opens = append(opens, t.Seconds()*1e3)
		}
		t := time.Now()
		d, err := kwsc.OpenDurable(dir, 2, 2)
		if err != nil {
			return nil, err
		}
		got, _, err := d.Collect(rects[0], qs[0].ws)
		full := time.Since(t)
		d.Close()
		out.attempted++
		if err != nil {
			out.failed++
		} else if err := checkExact(got, want[0]); err != nil {
			out.mismatch("probe after full-decode recovery: %v", err)
		}
		disk, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}

		out.layer["wal.recover_s"] = median(recovers)
		out.layer["wal.full_decode_recover_s"] = full.Seconds()
		out.layer["wal.replay_ms"] = median(recovers)*1e3 - median(opens)
		out.layer["wal.replayed_records"] = median(replayed)
		out.layer["wal.disk_bytes"] = float64(disk)
		out.layer["pager.open_ms"] = median(opens)
		out.layer["pager.pins_per_read"] = pins / nreads
		out.layer["pager.hit_ratio"] = ratio(hits, pins)
		out.layer["pager.evictions_per_read"] = evictions / nreads
		out.layer["pager.pin_us"] = ratio(pinNs, pinN) / 1e3
		out.layer["pager.examined_per_read"] = examined / nreads
		out.layer["repl.catchup_s"] = median(catchups)
		out.layer["repl.bootstrap_s"] = median(bootstraps)
		out.layer["repl.apply_ops_per_s"] = median(applyRates)
		out.layer["repl.ship_bytes"] = median(shipBytes)
		out.layer["repl.polls"] = median(polls)
	}
	return out, nil
}
