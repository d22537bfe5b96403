package main

import (
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// catBench tags the benchmark's own spans around the public calls it times.
const catBench = "bench"

// setupLayers maps the benchmark's set-up spans to per-layer metrics; each
// reports its median over the set-up repetitions.
var setupLayers = map[string]string{
	"dataset.load":    "dataset.load_s",
	"partition":       "partition.s",
	"cluster.connect": "cluster.connect_s",
	"warm_epoch":      "nau.warm_epoch_s",
	"serve.new":       "serve.new_s",
	"serve.warm":      "serve.warm_s",
}

// fold turns the traced run's spans into the per-layer vector.
func (r *runner) fold(spans []trace.Span) {
	durs := map[string][]float64{}
	for _, s := range spans {
		if name, ok := setupLayers[s.Name]; ok && s.Cat == catBench {
			durs[name] = append(durs[name], float64(s.Dur)/1e9)
		}
	}
	for name, d := range durs {
		r.layers[name] = median(d)
	}
	var steady []trace.Span
	for _, s := range spans {
		if s.Start >= r.window[0] && s.Start < r.window[1] {
			steady = append(steady, s)
		}
	}
	if r.s.LossBits == nil {
		r.foldQueries(steady)
	} else {
		r.foldEpochs(steady)
	}
}

// breakdownLayers are the compute layers the cluster's Breakdown times as
// exclusive stages.
var breakdownLayers = map[string]metrics.Stage{
	"engine.aggregate_s": metrics.StageAggregation,
	"tensor.update_s":    metrics.StageUpdate,
	"nn.backward_s":      metrics.StageBackward,
}

// epochLayer names the layer a training-thread span's self time belongs to
// ("" leaves it unattributed).
func epochLayer(s trace.Span) string {
	switch s.Cat {
	case trace.CatStage:
		switch s.Name {
		case "select":
			return "nau.select_s"
		case "aggregate":
			return "engine.aggregate_s"
		case "update":
			return "tensor.update_s"
		case "backward":
			return "nn.backward_s"
		case "gradsync":
			return "collective.sync_s"
		}
	case trace.CatFence, trace.CatComm:
		return "collective.sync_s"
	case trace.CatSample:
		if s.Name == "sample_wait" {
			return "store.wait_s"
		}
	}
	return ""
}

// foldEpochs attributes each rank's training-thread time in the steady
// window to layers by span self time (duration minus nested children), per
// steady epoch per rank. Sampler spans run on their own goroutines: they
// count as sampling work, not as training-thread time.
func (r *runner) foldEpochs(spans []trace.Span) {
	byRank := map[int32][]trace.Span{}
	var sampleBusy float64
	for _, s := range spans {
		switch {
		case s.Cat == trace.CatSample && s.Name != "sample_wait":
			sampleBusy += float64(s.Dur)
		case s.Cat == trace.CatRoute || s.Cat == trace.CatServe:
		default:
			byRank[s.Rank] = append(byRank[s.Rank], s)
		}
	}
	sums := map[string]float64{}
	var attributed float64
	for _, list := range byRank {
		self := selfTimes(list)
		for i, s := range list {
			if name := epochLayer(s); name != "" {
				sums[name] += self[i]
				attributed += self[i]
			}
		}
	}
	perEpoch := 1e9 * float64(r.ops*r.ranks)
	for name, v := range sums {
		r.layers[name] = v / perEpoch
	}
	// Mini-batch forward and backward record no spans, only Breakdown
	// stages; a compute layer without spans takes its Breakdown time.
	for name, stage := range breakdownLayers {
		if sums[name] == 0 && r.stageSecs[stage] > 0 {
			r.layers[name] = r.stageSecs[stage] / float64(r.ops*r.ranks)
			attributed += r.stageSecs[stage] * 1e9
		}
	}
	r.layers["store.sample_busy_s"] = sampleBusy / perEpoch
	r.layers["unattributed_share"] = 1 - attributed/(float64(r.window[1]-r.window[0])*float64(r.ranks))
}

// selfTimes returns each span's duration minus the time its directly
// nested spans cover. Spans of one rank nest when one lies wholly inside
// another; partial overlaps (other goroutines) do not nest.
func selfTimes(spans []trace.Span) []float64 {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Dur > sb.Dur
	})
	self := make([]float64, len(spans))
	var stack []int
	for _, i := range idx {
		s := spans[i]
		self[i] = float64(s.Dur)
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if s.Start+s.Dur <= top.Start+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= float64(s.Dur)
		}
		stack = append(stack, i)
	}
	return self
}

// foldQueries reads the serving layers from the steady window's spans: the
// router's self time per query (route span minus the union of its shard
// spans), shard fan-out, and the replicas' micro-batch sizes and times.
func (r *runner) foldQueries(spans []trace.Span) {
	shards := map[uint64][]trace.Span{}
	var routes []trace.Span
	var batchMs, batchVerts []float64
	var queryNs, routeNs float64
	for _, s := range spans {
		switch {
		case s.Cat == trace.CatRoute && s.Name == "route":
			routes = append(routes, s)
			routeNs += float64(s.Dur)
		case s.Cat == trace.CatRoute && strings.HasPrefix(s.Name, "shard:"):
			shards[s.Parent] = append(shards[s.Parent], s)
		case s.Cat == trace.CatServe && s.Name == "batch":
			batchMs = append(batchMs, float64(s.Dur)/1e6)
			batchVerts = append(batchVerts, float64(s.Phase))
		case s.Cat == catBench && s.Name == "query":
			queryNs += float64(s.Dur)
		}
	}
	var selfMs []float64
	var nShards int
	for _, rt := range routes {
		kids := shards[rt.ID]
		nShards += len(kids)
		selfMs = append(selfMs, float64(rt.Dur-covered(kids))/1e6)
	}
	r.layers["router.self_ms.p50"] = median(selfMs)
	if len(routes) > 0 {
		r.layers["router.shards_per_query"] = float64(nShards) / float64(len(routes))
	}
	r.layers["serve.batch_ms.p50"] = quantile(batchMs, 0.50)
	r.layers["serve.batch_ms.p99"] = quantile(batchMs, 0.99)
	r.layers["serve.batch_vertices.p50"] = median(batchVerts)
	if queryNs > 0 {
		r.layers["unattributed_share"] = 1 - routeNs/queryNs
	}
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []trace.Span) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end int64
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		if lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}
