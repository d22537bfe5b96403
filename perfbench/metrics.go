package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the system sees, reported by every
// workload with tracing off. An operation is one training epoch on the
// training workloads and one routed query on the serving workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},       // inputs handed over -> ready for steady state (median of setups)
	{"op_ms.p50", "ms"},    // median steady-state operation latency
	{"op_ms.p99", "ms"},    // 99th-percentile operation latency
	{"op_cpu_ms", "ms"},    // process CPU (user+sys, every rank) per operation
	{"heap_live_mb", "MB"}, // live heap after a forced GC at the end of steady state
}

// perLayerMetrics is the traced per-layer vector. Every workload reports
// every entry; a layer the workload does not run reads 0. Time metrics
// suffixed _s are seconds per steady epoch per rank unless noted.
var perLayerMetrics = []metricDef{
	{"dataset.load_s", "s"},
	{"partition.s", "s"},
	{"cluster.connect_s", "s"},
	{"nau.warm_epoch_s", "s"},
	{"serve.new_s", "s"},
	{"serve.warm_s", "s"},
	{"nau.select_s", "s"},
	{"engine.aggregate_s", "s"},
	{"tensor.update_s", "s"},
	{"nn.backward_s", "s"},
	{"collective.sync_s", "s"},
	{"collective.fence_wait_s", "s"},
	{"collective.bytes_per_epoch", "bytes"},
	{"collective.msgs_per_epoch", "count"},
	{"rpc.send_s", "s"},
	{"partition.edge_cut_share", "share"},
	{"cluster.balance_skew", "ratio"},
	{"store.wait_s", "s"},
	{"store.sample_busy_s", "s"},
	{"serve.cache_hit_ratio", "share"},
	{"serve.cache_evictions_per_query", "count"},
	{"serve.batch_vertices.p50", "count"},
	{"serve.batch_ms.p50", "ms"},
	{"serve.batch_ms.p99", "ms"},
	{"serve.update_ms", "ms"},
	{"router.self_ms.p50", "ms"},
	{"router.shards_per_query", "count"},
	{"router.retries", "count"},
	{"router.shed", "count"},
	{"runtime.alloc_mb_per_epoch", "MB"},
	{"runtime.gc_cycles_per_epoch", "count"},
	{"runtime.alloc_kb_per_query", "KB"},
	{"loadgen.late_ms.p99", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans_dropped", "count"},
	{"unattributed_share", "share"},
}

// sample is what one measuring child reports to the parent.
type sample struct {
	Traced bool `json:"traced"`
	// SetupS holds one set-up time per repetition.
	SetupS []float64 `json:"setup_s"`
	// OpMs holds every steady-state operation latency; a failed operation
	// reads as its deadline, so it misses any latency limit.
	OpMs []float64 `json:"op_ms"`
	// OpCPUMs is process CPU per operation: the median over epochs, or the
	// window's CPU over the queries answered.
	OpCPUMs    float64 `json:"op_cpu_ms"`
	HeapLiveMB float64 `json:"heap_live_mb"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	// LossBits is the training loss trajectory (warm-up epoch first) as
	// float32 bit patterns, so equality checks are exact.
	LossBits []uint32 `json:"loss_bits,omitempty"`
	// Problems lists failed output checks.
	Problems []string `json:"problems,omitempty"`
	// AllocMB and GCCycles cover the steady window.
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	// Layers is the per-layer vector (traced runs only).
	Layers map[string]float64 `json:"layers,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEnd(s *sample) map[string]metric {
	vals := map[string]float64{
		"setup_s":      median(s.SetupS),
		"op_ms.p50":    quantile(s.OpMs, 0.50),
		"op_ms.p99":    quantile(s.OpMs, 0.99),
		"op_cpu_ms":    s.OpCPUMs,
		"heap_live_mb": s.HeapLiveMB,
	}
	return withUnits(endToEndMetrics, vals)
}

// perLayer combines the traced child's layer vector with the untraced
// child's allocation counts (the tracer allocates spans, so allocation is
// read where it is off) and the tracing overhead between the two.
func perLayer(plain, traced *sample) map[string]metric {
	vals := map[string]float64{}
	for k, v := range traced.Layers {
		vals[k] = v
	}
	ops := float64(len(plain.OpMs))
	if len(plain.LossBits) > 0 {
		vals["runtime.alloc_mb_per_epoch"] = plain.AllocMB / ops
		vals["runtime.gc_cycles_per_epoch"] = plain.GCCycles / ops
	} else {
		vals["runtime.alloc_kb_per_query"] = plain.AllocMB * 1024 / ops
	}
	vals["trace.overhead_share"] = traced.OpCPUMs/plain.OpCPUMs - 1
	return withUnits(perLayerMetrics, vals)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces two collections, so objects allocated while the first
// was marking are settled, and returns the live heap in MiB. Callers keep
// the system under test reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMark snapshots cumulative allocation for a steady-window delta.
type allocMark struct {
	bytes uint64
	gcs   uint32
}

func markAlloc() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.TotalAlloc, ms.NumGC}
}

func (m allocMark) since() (mb, gcs float64) {
	now := markAlloc()
	return float64(now.bytes-m.bytes) / (1 << 20), float64(now.gcs - m.gcs)
}

type envStamp struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

func stampEnv() envStamp {
	e := envStamp{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func formatLosses(bits []uint32) string {
	parts := make([]string, len(bits))
	for i, b := range bits {
		parts[i] = fmt.Sprintf("%.6g", math.Float32frombits(b))
	}
	return strings.Join(parts, " ")
}
