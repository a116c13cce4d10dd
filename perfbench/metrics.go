package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"kwsc"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec holds the metric lists of BENCHMARK.json: the end-to-end metrics,
// each measured on every workload so none reads 0, and the traced run's
// per-layer metrics, named <module>.<metric>, which read 0 on a workload
// that does not reach their layer.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads the metric lists from the BENCHMARK.json at path.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &sp, nil
}

// reg wraps a registry snapshot for phase deltas.
type reg struct{ s kwsc.MetricsSnapshot }

func snap() reg { return reg{kwsc.Metrics()} }

// counterTo is the change of a counter from r to end.
func (r reg) counterTo(end reg, name string) float64 {
	return float64(end.s.Counter(name) - r.s.Counter(name))
}

// histTo returns the count and sum changes from r to end of every histogram
// whose series name starts with prefix (all label sets of one metric).
func (r reg) histTo(end reg, prefix string) (count, sum float64) {
	for name, h := range end.s.Histograms {
		if strings.HasPrefix(name, prefix) {
			was := r.s.Histogram(name)
			count += float64(h.Count - was.Count)
			sum += float64(h.Sum - was.Sum)
		}
	}
	return count, sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarize prints every measured value to w for a human reader.
func summarize(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "%s: attempted=%d failed=%d wrong=%d\n", name, out.attempted, out.failed, len(out.wrong))
	for _, set := range []map[string]float64{out.e2e, out.layer} {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %.6g\n", k, set[k])
		}
	}
}
