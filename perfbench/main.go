// Command perfbench is the repository's benchmark: one run of one named
// workload from a seed, measured for a fixed time by a single closed-loop
// client, every output checked against the benchmark's own reference. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// per-layer metrics, both read from BENCHMARK.json in the working
// directory. See README.md for the workloads and metrics. From the root of
// the checkout:
//
//	bash perfbench/run.sh --workload lib-read --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --quick   # every workload, tiny inputs, all checks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// opts is one run's configuration.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	work    string // scratch directory for durable state, removed at exit
}

// outcome is what a workload returns: the counts of checked operations and
// both metric sets (the caller prints the one the trace flag selects). Keys
// starting with "n." are notes for the summary on standard error: sample
// counts and per-class figures.
type outcome struct {
	attempted, failed int64
	wrong             []string // correctness failures, empty when correct
	e2e, layer        map[string]float64
}

func (o *outcome) mismatch(format string, args ...any) {
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(opts) (*outcome, error)
}

var workloads = []workload{
	{"lib-read", runLibRead},
	{"http-read", runHTTPRead},
	{"durable-churn", runDurableChurn},
	{"durable-reopen", runDurableReopen},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: lib-read, http-read, durable-churn, durable-reopen")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "run every workload at a tiny size with all checks and print a summary")
	flag.Parse()

	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *quick {
		if err := runQuick(o, sp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOne(*name, o, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne runs one workload in a fresh scratch directory under the working
// directory and turns its outcome into the printed result.
func runOne(name string, o opts, sp *spec) (*resultJSON, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work

	out, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range out.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output: %s\n", name, m)
	}
	summarize(os.Stderr, name, out)

	table, vals := sp.EndToEnd, out.e2e
	if o.trace {
		table, vals = sp.PerLayer, out.layer
	}
	res := &resultJSON{
		Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricJSON{},
	}
	for _, m := range table {
		v, ok := vals[m.Name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, m.Name)
		}
		res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", name)
	}
	return res, nil
}

// runQuick runs every workload at a tiny size, traced so every layer's
// metric path runs too, and fails on any wrong output or failed operation.
func runQuick(o opts, sp *spec) error {
	o.quick, o.trace = true, true
	o.seconds = 0.2
	for _, w := range workloads {
		start := time.Now()
		res, err := runOne(w.name, o, sp)
		if err != nil {
			return err
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		fmt.Printf("%-15s ok  %6d ops checked  %v\n", w.name, res.Attempted, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
