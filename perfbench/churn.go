package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kwsc"
)

// durable-churn: one client runs a seeded mix of reads, inserts and deletes
// of live handles against kwsc.OpenDurable with auto-checkpoints and the
// library's default fsync policy, FsyncEveryOp (one fsync per acknowledged
// write). Each round holds exactly one auto-checkpoint, and Bentley–Saxe
// merges happen as inserts carry, so a read gain that costs inserts, merges
// or checkpoints shows here.

type churnSize struct {
	seed, reads, inserts, deletes, builds int
}

// churnSizeFor gives a round one write per four reads, chosen without
// measured traffic (cmd/kwsload's -writes defaults to none). Inserts and
// deletes are equal so the live count stays constant, and a round's writes
// are the auto-checkpoint interval, so each round holds one checkpoint.
func churnSizeFor(quick bool) churnSize {
	if quick {
		return churnSize{seed: 500, reads: 80, inserts: 10, deletes: 10, builds: 1}
	}
	return churnSize{seed: 20_000, reads: 2000, inserts: 250, deletes: 250, builds: 3}
}

func (s churnSize) writes() int { return s.inserts + s.deletes }

var churnCorpus = corpusSpec{Vocab: 5000, Skew: 1.0, DocMin: 3, DocMax: 9}

// churnRead draws one read of the durable workloads' mix: half
// head-keyword pairs over a small square, half pairs of a live object's
// keywords around it — lib-read's two small-output classes in equal
// shares. The broad class is left out so that reads stay short beside the
// writes, the recovery and the catch-up these workloads exist to measure.
func churnRead(r *rand.Rand, live []int64, ref *oracle) query {
	if r.IntN(2) == 0 {
		return query{kind: "head", ws: headPair(r, libHeadRanks),
			shape: square(coord(r), coord(r), sideFor(0.0005+0.0015*r.Float64()))}
	}
	o := ref.objs[live[r.IntN(len(live))]]
	return query{kind: "doc", ws: docPair(r, o.Doc),
		shape: square(o.Point[0], o.Point[1], sideFor(0.01+0.04*r.Float64()))}
}

// opKind is one churn operation class.
type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// churnOp is one executed operation, kept for the traced in-memory replay.
type churnOp struct {
	kind   opKind
	q      query
	obj    kwsc.Object
	handle int64 // durable handle inserted or deleted
}

// churnState is the client's model of the live set.
type churnState struct {
	ref  *oracle
	live []int64 // live handles, for drawing deletes
	pos  map[int64]int
}

func (s *churnState) add(h int64, obj kwsc.Object) {
	s.ref.add(h, obj)
	s.pos[h] = len(s.live)
	s.live = append(s.live, h)
}

func (s *churnState) remove(h int64) {
	s.ref.remove(h)
	i := s.pos[h]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, h)
}

// openChurn seeds a durable directory (bulk load without fsync, one
// checkpoint) and reopens it in the measured configuration.
func openChurn(dir string, seed []kwsc.Object, ckptEvery int) (*kwsc.DurableORPKW, []int64, error) {
	d, err := kwsc.OpenDurable(dir, 2, 2, kwsc.WithFsyncPolicy(kwsc.FsyncNone))
	if err != nil {
		return nil, nil, err
	}
	handles := make([]int64, len(seed))
	for i, obj := range seed {
		if handles[i], err = d.Insert(obj); err != nil {
			d.Close()
			return nil, nil, err
		}
	}
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, nil, err
	}
	if err := d.Close(); err != nil {
		return nil, nil, err
	}
	d, err = kwsc.OpenDurable(dir, 2, 2, kwsc.WithAutoCheckpoint(ckptEvery))
	return d, handles, err
}

func runDurableChurn(o opts) (*outcome, error) {
	size := churnSizeFor(o.quick)
	gen := newObjectGen(churnCorpus)
	seedObjs := gen.corpus(newRand(o.seed, streamCorpus), size.seed)

	var d *kwsc.DurableORPKW
	var handles []int64
	var setups []float64
	var dir string
	for b := 0; b < size.builds; b++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(o.work, fmt.Sprintf("churn-%d", b))
		var err error
		t := timed(func() { d, handles, err = openChurn(dir, seedObjs, size.writes()) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}

	st := &churnState{ref: newOracle(), pos: map[int64]int{}}
	for i, obj := range seedObjs {
		st.add(handles[i], obj)
	}
	if d.Len() != st.ref.live() {
		return nil, fmt.Errorf("seeded Len %d, want %d", d.Len(), st.ref.live())
	}

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	r := newRand(o.seed, streamOps)
	var rec recorder
	var log []churnOp
	var insertLat []float64
	var userBytes float64
	buf := make([]opKind, 0, size.reads+size.writes())
	// step runs one operation, checks it against the model, and records it.
	step := func(kind opKind, timedRound bool) {
		out.attempted++
		op := churnOp{kind: kind}
		switch kind {
		case opRead:
			op.q = churnRead(r, st.live, st.ref)
			rect := op.q.shape.rect()
			t := time.Now()
			got, _, err := d.Collect(rect, op.q.ws)
			dt := time.Since(t)
			if err != nil {
				out.failed++
				return
			}
			if timedRound {
				rec.read(dt)
			}
			if err := checkExact(got, st.ref.answer(op.q.shape, op.q.ws)); err != nil {
				out.mismatch("read %v %v: %v", op.q.ws, op.q.shape, err)
			}
		case opInsert:
			op.obj = gen.object(r)
			t := time.Now()
			h, err := d.Insert(op.obj)
			dt := time.Since(t)
			if err != nil {
				out.failed++
				return
			}
			if timedRound {
				rec.write(dt)
				insertLat = append(insertLat, us(dt))
				userBytes += float64(16 + 4*len(op.obj.Doc))
			}
			op.handle = h
			st.add(h, op.obj)
		case opDelete:
			op.handle = st.live[r.IntN(len(st.live))]
			t := time.Now()
			ok, err := d.Delete(op.handle)
			dt := time.Since(t)
			if err != nil {
				out.failed++
				return
			}
			if timedRound {
				rec.write(dt)
				userBytes += 8
			}
			if !ok {
				out.mismatch("delete of live handle %d reported absent", op.handle)
			}
			st.remove(op.handle)
		}
		if o.trace {
			log = append(log, op)
		}
	}
	// round runs one shuffled round of the fixed mix.
	round := func(timedRound bool) {
		buf = buf[:0]
		for i := 0; i < size.reads; i++ {
			buf = append(buf, opRead)
		}
		for i := 0; i < size.inserts; i++ {
			buf = append(buf, opInsert)
		}
		for i := 0; i < size.deletes; i++ {
			buf = append(buf, opDelete)
		}
		r.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		if timedRound {
			rec.begin()
		}
		for _, k := range buf {
			step(k, timedRound)
		}
	}

	defer pinClient()()
	// Half a round of writes first, so every later round's checkpoint
	// falls mid-round and each round ends with half a cycle of WAL.
	for i := 0; i < size.writes()/2; i++ {
		step(opInsert+opKind(i%2), false)
	}
	round(false)
	warm := len(log)
	// The live heap is taken here, where the index state is a function of
	// the seed alone; the model's share is taken off after Close below.
	h1 := liveHeap()
	r0 := snap()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rec.rounds) == 0 || time.Now().Before(deadline) {
		round(true)
	}
	r1 := snap()

	if d.Len() != st.ref.live() {
		out.mismatch("Len %d after churn, model has %d live", d.Len(), st.ref.live())
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = rec.opsPerSec()
	out.e2e["read_p50_us"] = rec.readP(0.50)
	out.e2e["read_p95_us"] = rec.readP(0.95)
	out.e2e["n.read_p99_us"] = rec.readP(0.99)
	total, perRound := rec.samples(false)
	out.e2e["n.read_samples"] = float64(total)
	out.e2e["n.read_samples_per_round"] = float64(perRound)
	wtotal, wperRound := rec.samples(true)
	out.e2e["n.write_samples"] = float64(wtotal)
	out.e2e["n.write_samples_per_round"] = float64(wperRound)
	out.e2e["n.rounds"] = float64(len(rec.rounds))

	if o.trace {
		writes := float64(wtotal)
		disk, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		out.layer["wal.write_p50_us"] = rec.writeP(0.50)
		out.layer["wal.write_p99_us"] = rec.writeP(0.99)
		out.layer["wal.disk_bytes"] = float64(disk)
		out.layer["wal.fsyncs_per_write"] = r0.counterTo(r1, "kwsc_wal_fsyncs_total") / writes
		appendBytes := r0.counterTo(r1, "kwsc_wal_append_bytes_total")
		out.layer["wal.append_bytes_per_write"] = appendBytes / writes
		ckpts := r0.counterTo(r1, "kwsc_wal_checkpoints_total")
		out.layer["wal.checkpoints"] = ckpts * 1000 / writes
		n, sum := r0.histTo(r1, "kwsc_wal_checkpoint_ns")
		out.layer["wal.checkpoint_ms"] = ratio(sum, n) / 1e6
		ckptSize, err := newestCheckpointBytes(dir)
		if err != nil {
			return nil, err
		}
		out.layer["wal.write_amp"] = ratio(appendBytes+ckpts*float64(ckptSize), userBytes)
		out.layer["core.rebuilds"] = r0.counterTo(r1, "kwsc_dynamic_rebuilds_total") * 1000 / writes
		out.layer["core.carries"] = r0.counterTo(r1, "kwsc_dynamic_carries_total") * 1000 / writes
		out.layer["core.buckets"] = float64(d.NumBuckets())
		if err := replayTwin(out, seedObjs, handles, log, warm); err != nil {
			return nil, err
		}
		out.layer["wal.write_self_us"] = percentile(insertLat, 0.5) - out.layer["core.dyn_insert_us"]
	}

	// Drop what the timed phase accumulated, so that closing the index is
	// the only change between the two heap readings.
	rec, log, insertLat = recorder{}, nil, nil
	if err := d.Close(); err != nil {
		return nil, err
	}
	d = nil
	out.e2e["heap_bytes"] = float64(h1) - float64(liveHeap())
	return out, nil
}

// replayTwin feeds the executed operation stream to an in-memory
// DynamicORPKW (no log, no fsync) and times its inserts and reads: the
// index layer's share of the durable write and read paths.
func replayTwin(out *outcome, seed []kwsc.Object, seedHandles []int64, log []churnOp, warm int) error {
	tw, err := kwsc.NewDynamicORPKW(2, 2, 0)
	if err != nil {
		return err
	}
	handle := map[int64]int64{} // durable handle -> twin handle
	apply := func(op churnOp) (time.Duration, error) {
		t := time.Now()
		switch op.kind {
		case opInsert:
			h, err := tw.Insert(op.obj)
			d := time.Since(t)
			handle[op.handle] = h
			return d, err
		case opDelete:
			_, err := tw.Delete(handle[op.handle])
			return time.Since(t), err
		}
		_, _, err := tw.Collect(op.q.shape.rect(), op.q.ws)
		return time.Since(t), err
	}
	for i, obj := range seed {
		h, err := tw.Insert(obj)
		if err != nil {
			return err
		}
		handle[seedHandles[i]] = h
	}
	var ins, reads []float64
	for i, op := range log {
		d, err := apply(op)
		if err != nil {
			return fmt.Errorf("in-memory replay: %w", err)
		}
		if i < warm {
			continue
		}
		switch op.kind {
		case opInsert:
			ins = append(ins, us(d))
		case opRead:
			reads = append(reads, us(d))
		}
	}
	out.layer["core.dyn_insert_us"] = percentile(ins, 0.5)
	out.layer["core.dyn_insert_p99_us"] = percentile(ins, 0.99)
	out.layer["core.dyn_read_us"] = percentile(reads, 0.5)
	return nil
}

// newestCheckpoint is the path of the newest checkpoint file in dir.
func newestCheckpoint(dir string) (string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var newest string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".ckpt") && de.Name() > newest {
			newest = de.Name()
		}
	}
	if newest == "" {
		return "", fmt.Errorf("no checkpoint in %s", dir)
	}
	return filepath.Join(dir, newest), nil
}

// newestCheckpointBytes is the size of the newest checkpoint file in dir.
func newestCheckpointBytes(dir string) (int64, error) {
	path, err := newestCheckpoint(dir)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
