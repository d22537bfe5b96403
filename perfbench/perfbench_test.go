package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// tinyScale shrinks every workload's inputs so a whole run takes seconds.
const tinyScale = 0.05

// inTempDir runs the test from a fresh directory, since the benchmark
// writes under .bench_build relative to where it runs.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func genTiny(t *testing.T, w *workload, seed uint64) (string, string) {
	t.Helper()
	dir, err := inputDir(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := generate(w, dir, seed, tinyScale)
	if err != nil {
		t.Fatalf("%s: generate: %v", w.name, err)
	}
	return dir, digest
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that each run passes its output checks and reports every metric.
func TestSmoke(t *testing.T) {
	inTempDir(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir, _ := genTiny(t, w, 1)
			plain, err := measure(w, dir, 1, 0.3, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := measure(w, dir, 1, 0.3, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*sample{plain, traced} {
				if len(s.Problems) > 0 || s.Failed != 0 || s.Attempted < minSteadyOps {
					t.Fatalf("traced=%v: problems %v, %d of %d operations failed", s.Traced, s.Problems, s.Failed, s.Attempted)
				}
				if len(s.SetupS) != setupReps {
					t.Fatalf("traced=%v: %d set-ups, want %d", s.Traced, len(s.SetupS), setupReps)
				}
			}
			if p := checkTrajectory(dir, []*sample{plain, traced}); len(p) > 0 {
				t.Fatalf("trajectory: %v", p)
			}
			for name, m := range endToEnd(plain) {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			known := map[string]bool{}
			for _, d := range perLayerMetrics {
				known[d.name] = true
			}
			for name := range traced.Layers {
				if !known[name] {
					t.Errorf("traced run reports %q, which is not a per-layer metric", name)
				}
			}
			layers := perLayer(plain, traced)
			if len(layers) != len(perLayerMetrics) {
				t.Errorf("per-layer vector has %d metrics, want %d", len(layers), len(perLayerMetrics))
			}
			if layers["trace.spans_dropped"].Value != 0 {
				t.Errorf("tracer dropped %v spans", layers["trace.spans_dropped"].Value)
			}
		})
	}
}

// TestSeedDeterminism checks that a seed fixes the inputs and the loss
// trajectory, and that another seed changes the inputs.
func TestSeedDeterminism(t *testing.T) {
	inTempDir(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir, d1 := genTiny(t, w, 7)
			if d2, err := generate(w, dir+"-again", 7, tinyScale); err != nil || d2 != d1 {
				t.Fatalf("same seed: digest %s then %s (%v)", d1, d2, err)
			}
			if _, d3 := genTiny(t, w, 8); d3 == d1 {
				t.Fatalf("seeds 7 and 8 gave the same inputs digest %s", d1)
			}
			if w.snapshots {
				return // serving has no loss trajectory
			}
			a, err := measure(w, dir, 7, 0.2, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := measure(w, dir+"-again", 7, 0.2, false)
			if err != nil {
				t.Fatal(err)
			}
			n := min(len(a.LossBits), len(b.LossBits))
			if n < 1+minSteadyOps || !slices.Equal(a.LossBits[:n], b.LossBits[:n]) {
				t.Fatalf("loss trajectories differ:\n%s\n%s", formatLosses(a.LossBits), formatLosses(b.LossBits))
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricSchema checks every metric name and unit, and that
// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestMetricSchema(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q unit %q: malformed", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var spec struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
	for _, d := range spec.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", d.Name)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestZipf checks the popularity sampler against P(rank i) proportional to
// (i+1)^-theta on ranks that carry much of the mass.
func TestZipf(t *testing.T) {
	const n, draws = 1000, 400000
	z := newZipf(n, zipfTheta)
	rng := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(rng.Float64())]++
	}
	for _, i := range []int{0, 1, 2, 9, 99} {
		want := math.Pow(float64(i+1), -zipfTheta) / z.cum[n-1]
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("rank %d: frequency %.5f, want %.5f", i, got, want)
		}
	}
}
