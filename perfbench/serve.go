package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Serving workload shape: an open loop of Zipf-skewed 8-vertex queries at a
// fixed rate below the knee, through a router over in-process replicas,
// with every replica's weights replaced every updateEvery.
const (
	replicas       = 3
	queryRate      = 400.0 // queries per second, below the knee with updates
	queryVertices  = 8
	updateEvery    = 2 * time.Second
	warmQueries    = 400
	warmClients    = 8
	queryTimeout   = 5 * time.Second
	maxOutstanding = 4096
	paritySample   = 64
)

// zipfTheta is the popularity skew: YCSB's default Zipfian constant
// (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC
// 2010), the common reference skew for cache-fronted serving benchmarks.
const zipfTheta = 0.99

// query is one scheduled request: its send time from the window start and
// its vertices.
type query struct {
	at    time.Duration
	verts []graph.VertexID
}

// queryStream draws count queries with Poisson arrivals at rate and
// vertices Zipf-distributed over a seeded permutation of the vertex IDs, so
// the hot set differs per seed but not per run.
func queryStream(seed, stream uint64, numVertices, count int, rate float64) []query {
	rng := rand.New(rand.NewPCG(seed, stream))
	perm := rng.Perm(numVertices)
	zipf := newZipf(numVertices, zipfTheta)
	qs := make([]query, count)
	var at float64
	for i := range qs {
		at += rng.ExpFloat64() / rate
		verts := make([]graph.VertexID, queryVertices)
		for j := range verts {
			verts[j] = graph.VertexID(perm[zipf.rank(rng.Float64())])
		}
		qs[i] = query{at: time.Duration(at * float64(time.Second)), verts: verts}
	}
	return qs
}

// zipf draws popularity ranks in [0, n) with P(rank i) proportional to
// (i+1)^-theta, by inverting the cumulative distribution (math/rand's Zipf
// needs an exponent above 1).
type zipf struct {
	cum []float64 // cum[i] is the unnormalised mass of ranks 0..i
}

func newZipf(n int, theta float64) zipf {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	return zipf{cum}
}

// rank maps a uniform draw u in [0, 1) to a popularity rank.
func (z zipf) rank(u float64) int {
	x := u * z.cum[len(z.cum)-1]
	return min(sort.SearchFloat64s(z.cum, x), len(z.cum)-1)
}

// fleet is one set-up of the serving tier.
type fleet struct {
	d      *dataset.Dataset
	models []*nau.Model
	srvs   []*serve.Server
	rt     *router.Router
	reg    *metrics.Registry
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}

// loadWeights reads one weight snapshot into fresh tensors.
func loadWeights(d *dataset.Dataset, path string, seed uint64) ([]*tensor.Tensor, error) {
	m := models.NewGCN(d.FeatureDim(), serveHidden, d.NumClasses, tensor.NewRNG(seed))
	if err := nn.LoadCheckpoint(path, m.Parameters()); err != nil {
		return nil, err
	}
	var ts []*tensor.Tensor
	for _, p := range m.Parameters() {
		ts = append(ts, p.Data.Clone())
	}
	return ts, nil
}

func setWeights(m *nau.Model, ws []*tensor.Tensor) {
	for i, p := range m.Parameters() {
		p.Data.CopyFrom(ws[i])
	}
}

// measureServe is routed online inference: a router with the
// flexgraph-router defaults over in-process serve.Server replicas, driven
// open loop while the weights change under it.
func measureServe(r *runner) error {
	// The update source is the benchmark's, not the system's: both weight
	// versions are read before any timer starts.
	d0, err := dataset.Load(filepath.Join(r.in, graphFile))
	if err != nil {
		return err
	}
	var snaps [2][]*tensor.Tensor
	for i, name := range []string{snapAFile, snapBFile} {
		if snaps[i], err = loadWeights(d0, filepath.Join(r.in, name), r.seed); err != nil {
			return err
		}
	}
	n := d0.Graph.NumVertices()
	warmQs := queryStream(r.seed, 1, n, warmQueries, queryRate)
	qs := queryStream(r.seed, 2, n, int(queryRate*r.seconds*1.5)+minSteadyOps, queryRate)
	d0 = nil

	var f *fleet
	defer func() { f.close() }()
	for rep := 0; rep < setupReps; rep++ {
		f.close()
		f = nil
		runtime.GC()
		setup := r.span("setup")
		t0 := time.Now()
		if f, err = r.newFleet(); err != nil {
			return err
		}
		ws := r.span("serve.warm")
		err := warmBurst(f.rt, warmQs)
		ws.End()
		if err != nil {
			return fmt.Errorf("warm-up burst: %w", err)
		}
		r.s.SetupS = append(r.s.SetupS, time.Since(t0).Seconds())
		setup.End()
	}

	window := time.Duration(r.seconds * float64(time.Second))
	final, err := r.openLoop(f, qs, window, snaps)
	if err != nil {
		return err
	}
	r.s.HeapLiveMB = liveHeapMB()
	runtime.KeepAlive(f)
	return r.checkParity(f, snaps[final])
}

// newFleet loads the inputs and starts the replicas and the router.
func (r *runner) newFleet() (*fleet, error) {
	d, err := r.load()
	if err != nil {
		return nil, err
	}
	f := &fleet{d: d, reg: r.registry()}
	defer r.span("serve.new").End()
	for i := 0; i < replicas; i++ {
		m := models.NewGCN(d.FeatureDim(), serveHidden, d.NumClasses, tensor.NewRNG(r.seed))
		if err := nn.LoadCheckpoint(filepath.Join(r.in, snapAFile), m.Parameters()); err != nil {
			f.close()
			return nil, err
		}
		s, err := serve.New(serve.Options{
			Model: m, Graph: d.Graph, Features: d.Features, Seed: r.seed,
			Metrics: f.reg, Tracer: r.tracer,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.models = append(f.models, m)
		f.srvs = append(f.srvs, s)
	}
	reps := make([]router.Replica, len(f.srvs))
	for i, s := range f.srvs {
		reps[i] = router.Replica{Name: fmt.Sprintf("replica-%d", i), Querier: s}
	}
	// The flexgraph-router defaults: no SLO shedding, no hot-vertex
	// replication, eviction after one failure.
	f.rt, err = router.New(router.Options{Replicas: reps, FailureThreshold: 1, Metrics: f.reg, Tracer: r.tracer})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// warmBurst runs queries closed loop from a few clients to fill the caches.
func warmBurst(rt *router.Router, qs []query) error {
	errs := make([]error, warmClients)
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(qs); i += warmClients {
				if _, err := rt.Query(context.Background(), qs[i].verts); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

var errBadReply = errors.New("reply does not answer the queried vertices")

// openLoop sends every query due within window at its scheduled time,
// whatever the backlog, and times each from that schedule. Once per
// updateEvery it rolls new weights out to every replica, alternating between
// the two snapshots starting from the second. It returns the index of the
// snapshot the replicas hold at the end.
func (r *runner) openLoop(f *fleet, qs []query, window time.Duration, snaps [2][]*tensor.Tensor) (int, error) {
	due := 0
	for due < len(qs) && qs[due].at < window {
		due++
	}
	if due < minSteadyOps {
		return 0, fmt.Errorf("window %v schedules only %d queries", window, due)
	}
	qs = qs[:due]
	lat := make([]float64, len(qs))
	late := make([]float64, len(qs))
	failed := make([]bool, len(qs))
	sem := make(chan struct{}, maxOutstanding)

	var reg0 counters
	runtime.GC()
	reg0 = readCounters(f.reg)
	alloc := markAlloc()
	cpu0 := cpuTime()
	r.window[0] = r.tracer.Now()
	start := time.Now()

	// Each rollout starts at the end of a whole period that leaves a full
	// period before the window closes, and reaches the replicas one after
	// another, spread evenly over the period. A rolling rollout keeps two
	// of three replicas serving from warm caches while the third refills;
	// updating all three at once made the p99 the time of three concurrent
	// refills competing for the CPUs and for memory bandwidth, and far less
	// steady from run to run (README.md, Steadiness).
	current := 0
	var updMs []float64
	var updErr error
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for at := updateEvery; at+updateEvery <= window; at += updateEvery {
			current ^= 1
			for i, s := range f.srvs {
				time.Sleep(time.Until(start.Add(at + time.Duration(i)*updateEvery/replicas)))
				sp := r.span("update")
				t0 := time.Now()
				err := s.UpdateModel(func() error {
					setWeights(f.models[i], snaps[current])
					return nil
				})
				updMs = append(updMs, ms(time.Since(t0)))
				sp.End()
				if err != nil {
					updErr = err
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range qs {
		at := start.Add(qs[i].at)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(at))
		select {
		case sem <- struct{}{}:
		default:
			// The backlog is past any sane bound: refuse, which counts as a
			// failure that misses every latency limit.
			failed[i], lat[i] = true, ms(queryTimeout)
			continue
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := r.span("query")
			ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
			reply, err := f.rt.Query(ctx, qs[i].verts)
			cancel()
			sp.End()
			if err == nil && !answers(reply, qs[i].verts) {
				err = errBadReply
			}
			if err != nil {
				failed[i], lat[i] = true, ms(queryTimeout)
				return
			}
			lat[i] = ms(time.Since(at))
		}(i, at)
	}
	updWG.Wait()
	wg.Wait()
	cpu := cpuTime() - cpu0
	r.window[1] = r.tracer.Now()
	if updErr != nil {
		return 0, fmt.Errorf("model update: %w", updErr)
	}
	r.s.AllocMB, r.s.GCCycles = alloc.since()

	r.s.Attempted = len(qs)
	for i := range qs {
		if failed[i] {
			r.s.Failed++
		}
	}
	r.s.OpMs = lat
	r.ops = len(qs)
	answered := len(qs) - r.s.Failed
	if answered == 0 {
		return 0, fmt.Errorf("no query answered")
	}
	r.s.OpCPUMs = ms(cpu) / float64(answered)
	r.layers["loadgen.late_ms.p99"] = quantile(late, 0.99)
	r.layers["serve.update_ms"] = median(updMs)
	if f.reg != nil {
		c := readCounters(f.reg).minus(reg0)
		r.layers["serve.cache_hit_ratio"] = c.hits / math.Max(1, c.hits+c.misses)
		r.layers["serve.cache_evictions_per_query"] = c.evictions / float64(len(qs))
		r.layers["router.retries"] = c.retries
		r.layers["router.shed"] = c.shed
	}
	return current, nil
}

// answers reports whether reply holds one result per queried vertex, in
// order.
func answers(reply *serve.Reply, verts []graph.VertexID) bool {
	if len(reply.Results) != len(verts) {
		return false
	}
	for i, res := range reply.Results {
		if res.Vertex != verts[i] {
			return false
		}
	}
	return true
}

type counters struct{ hits, misses, evictions, retries, shed float64 }

func readCounters(reg *metrics.Registry) counters {
	if reg == nil {
		return counters{}
	}
	get := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	return counters{
		hits:      get("serve_cache_hits_total"),
		misses:    get("serve_cache_misses_total"),
		evictions: get("serve_cache_evictions_total"),
		retries:   get("router_retries_total"),
		shed:      get("router_shed_total"),
	}
}

func (c counters) minus(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions, c.retries - o.retries, c.shed - o.shed}
}

// checkParity queries a seeded sample of vertices through the router and
// requires every logit to be bit-identical to Trainer.Predict over the
// weights the replicas hold.
func (r *runner) checkParity(f *fleet, weights []*tensor.Tensor) error {
	m := models.NewGCN(f.d.FeatureDim(), serveHidden, f.d.NumClasses, tensor.NewRNG(r.seed))
	setWeights(m, weights)
	tr := nau.NewTrainerWith(m, nau.TrainerOptions{Graph: f.d.Graph, Features: f.d.Features, Labels: f.d.Labels, Seed: r.seed})
	want, err := tr.Predict()
	if err != nil {
		return fmt.Errorf("parity reference: %w", err)
	}
	rng := rand.New(rand.NewPCG(r.seed, 3))
	verts := make([]graph.VertexID, paritySample)
	for i := range verts {
		verts[i] = graph.VertexID(rng.IntN(f.d.Graph.NumVertices()))
	}
	reply, err := f.rt.Query(context.Background(), verts)
	if err != nil {
		r.problem("parity query: %v", err)
		return nil
	}
	if !answers(reply, verts) {
		r.problem("parity query: %v", errBadReply)
		return nil
	}
	for _, res := range reply.Results {
		row := want.Row(int(res.Vertex))
		for j, v := range res.Logits {
			if math.Float32bits(v) != math.Float32bits(row[j]) {
				r.problem("vertex %d logit %d: routed %v != Trainer.Predict %v", res.Vertex, j, v, row[j])
				return nil
			}
		}
	}
	return nil
}
