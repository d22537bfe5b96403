package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/partition"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Model and cluster sizes shared by generation and measurement.
const (
	gcnHidden     = 16
	pinsageHidden = 16
	magnnHidden   = 16
	serveHidden   = 32
	clusterRanks  = 2
	lpIters       = 5
	lpSlack       = 1.2
)

// setupReps is how many times each run sets the system up from its input
// files; setup_s is the median, and the last set-up carries on into the
// steady state.
const setupReps = 5

// minSteadyOps is the fewest steady-state operations a run measures, however
// short --seconds is.
const minSteadyOps = 3

// traceCapacity sizes the span ring so no run drops spans.
const traceCapacity = 1 << 20

// workload is one input set plus the code that drives the system over it.
type workload struct {
	name string
	// scale is the dataset scale at --scale 1.
	scale float64
	data  func(dataset.Config) *dataset.Dataset
	// snapshots asks generation for two trained weight versions.
	snapshots bool
	measure   func(r *runner) error
}

var workloads = []*workload{
	{name: "single-gcn-reddit", scale: 16, data: dataset.RedditLike, measure: measureSingle},
	{name: "cluster-pinsage-twitter-tcp", scale: 4, data: dataset.TwitterLike, measure: measureClusterTCP},
	{name: "minibatch-magnn-imdb", scale: 2, data: dataset.IMDBLike, measure: measureMiniBatch},
	{name: "serve-gcn-twitter-routed", scale: 8, data: dataset.TwitterLike, snapshots: true, measure: measureServe},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runner carries one measuring child's inputs, tracer and results.
type runner struct {
	in      string
	seed    uint64
	seconds float64
	// tracer and per-system registries are on only in traced runs.
	tracer *trace.Tracer
	s      *sample
	layers map[string]float64
	// window is the steady state in tracer time; ops operations ran in it
	// on ranks ranks.
	window [2]int64
	ops    int
	ranks  int
	// stageSecs sums the cluster's per-rank Breakdown stage seconds over
	// the steady epochs, from the balance reports.
	stageSecs [metrics.StageCount]float64
}

// measure runs workload w over the inputs in dir in this process.
func measure(w *workload, dir string, seed uint64, seconds float64, traced bool) (*sample, error) {
	r := &runner{
		in: dir, seed: seed, seconds: seconds, ranks: 1,
		s:      &sample{Traced: traced},
		layers: map[string]float64{},
	}
	if traced {
		r.tracer = trace.New(traceCapacity)
	}
	if err := w.measure(r); err != nil {
		return nil, err
	}
	if !traced {
		return r.s, nil
	}
	r.fold(r.tracer.Spans())
	r.layers["trace.spans_dropped"] = float64(r.tracer.Dropped())
	r.s.Layers = r.layers
	out := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	if err := r.tracer.WriteChromeTraceFile(out); err != nil {
		return nil, fmt.Errorf("write chrome trace: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: chrome trace written to", out)
	return r.s, nil
}

// span opens one of the benchmark's own spans around a call it times.
func (r *runner) span(name string) trace.Region {
	return r.tracer.Begin(0, 0, 0, catBench, name)
}

// registry returns a fresh metrics registry in traced runs, nil otherwise.
func (r *runner) registry() *metrics.Registry {
	if r.tracer == nil {
		return nil
	}
	return metrics.NewRegistry()
}

func (r *runner) problem(format string, args ...any) {
	r.s.Problems = append(r.s.Problems, fmt.Sprintf(format, args...))
}

func (r *runner) load() (*dataset.Dataset, error) {
	defer r.span("dataset.load").End()
	return dataset.Load(filepath.Join(r.in, graphFile))
}

// checkSame records a problem unless every value equals the first.
func (r *runner) checkSame(what string, vals []uint32) {
	for _, v := range vals[1:] {
		if v != vals[0] {
			r.problem("%s differs across set-ups: %s", what, formatLosses(vals))
			return
		}
	}
}

func lossBits(l float32) uint32 { return math.Float32bits(l) }

// measureSingle is single-machine whole-graph GCN (HA strategy): no
// neighbour selection, no communication, no sampler.
func measureSingle(r *runner) error {
	var tr *nau.Trainer
	var warm []uint32
	for rep := 0; rep < setupReps; rep++ {
		tr = nil
		runtime.GC()
		setup := r.span("setup")
		t0 := time.Now()
		d, err := r.load()
		if err != nil {
			return err
		}
		m := models.NewGCN(d.FeatureDim(), gcnHidden, d.NumClasses, tensor.NewRNG(r.seed))
		tr = nau.NewTrainerWith(m, nau.TrainerOptions{
			Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
			Seed: r.seed, Engine: engine.New(engine.StrategyHA), Tracer: r.tracer,
		})
		ws := r.span("warm_epoch")
		loss, err := tr.Epoch()
		ws.End()
		if err != nil {
			return fmt.Errorf("warm-up epoch: %w", err)
		}
		r.s.SetupS = append(r.s.SetupS, time.Since(t0).Seconds())
		setup.End()
		warm = append(warm, lossBits(loss))
	}
	r.checkSame("warm-up loss", warm)
	r.s.LossBits = warm[len(warm)-1:]

	runtime.GC()
	alloc := markAlloc()
	r.window[0] = r.tracer.Now()
	var cpus []float64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for n := 0; n < minSteadyOps || time.Now().Before(deadline); n++ {
		sp := r.tracer.Begin(0, int32(n), 0, catBench, "epoch")
		c0, t0 := cpuTime(), time.Now()
		loss, err := tr.Epoch()
		wall, cpu := time.Since(t0), cpuTime()-c0
		sp.End()
		r.s.Attempted++
		if err != nil {
			r.s.Failed++
			r.problem("epoch %d: %v", n, err)
			break
		}
		r.s.OpMs = append(r.s.OpMs, ms(wall))
		cpus = append(cpus, ms(cpu))
		r.s.LossBits = append(r.s.LossBits, lossBits(loss))
	}
	r.window[1] = r.tracer.Now()
	r.ops = len(r.s.OpMs)
	r.s.AllocMB, r.s.GCCycles = alloc.since()
	r.s.OpCPUMs = median(cpus)
	r.s.HeapLiveMB = liveHeapMB()
	runtime.KeepAlive(tr)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clusterSpec is what distinguishes the two k-rank training workloads.
type clusterSpec struct {
	tcp     bool
	config  cluster.Config
	factory func(d *dataset.Dataset) cluster.ModelFactory
}

// measureClusterTCP is k=2 whole-graph PinSage with partial aggregation
// (Pipeline) over real TCP transports on 127.0.0.1.
func measureClusterTCP(r *runner) error {
	return measureCluster(r, clusterSpec{
		tcp:    true,
		config: cluster.Config{Pipeline: true},
		factory: func(d *dataset.Dataset) cluster.ModelFactory {
			return func(rng *tensor.RNG) *nau.Model {
				return models.NewPinSage(d.FeatureDim(), pinsageHidden, d.NumClasses, models.DefaultPinSageConfig(), rng)
			}
		},
	})
}

// measureMiniBatch is k=2 loopback mini-batch MAGNN with the store sampler
// prefetching two batches ahead.
func measureMiniBatch(r *runner) error {
	return measureCluster(r, clusterSpec{
		config: cluster.Config{MiniBatch: &cluster.MiniBatchConfig{BatchSize: 128, PrefetchDepth: 2}},
		factory: func(d *dataset.Dataset) cluster.ModelFactory {
			return func(rng *tensor.RNG) *nau.Model {
				return models.NewMAGNN(d.FeatureDim(), magnnHidden, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
			}
		},
	})
}

// epochMark is rank 0's view of one finished epoch.
type epochMark struct {
	at  time.Time
	cpu time.Duration
	bal *metrics.BalanceReport
}

// clusterRun is one set-up of a cluster workload, run for some epochs.
type clusterRun struct {
	setup   time.Duration
	warm    time.Duration
	marks   []epochMark
	losses  []float32
	bds     []*metrics.Breakdown
	reg     *metrics.Registry
	d       *dataset.Dataset
	part    *partition.Partitioning
	err     error
	started time.Time
}

func measureCluster(r *runner, spec clusterSpec) error {
	r.ranks = clusterRanks
	var last *clusterRun
	var warmEpoch time.Duration
	var base totals // the first (one-epoch) set-up's communication totals
	var warm []uint32
	steady := 0
	for rep := 0; rep < setupReps; rep++ {
		final := rep == setupReps-1
		epochs := 1
		if final {
			// Size the steady state from the first set-up's warm epoch so
			// it lasts about --seconds.
			steady = max(int(math.Round(r.seconds/warmEpoch.Seconds())), minSteadyOps)
			epochs += steady
		}
		last = nil
		runtime.GC()
		cr, err := r.clusterOnce(spec, epochs, final)
		if err != nil {
			return err
		}
		if len(cr.marks) == 0 {
			return fmt.Errorf("set-up %d: %v", rep, cr.err)
		}
		if rep == 0 {
			warmEpoch = cr.warm
			if r.tracer != nil {
				base = commTotals(cr)
			}
		}
		last = cr
		r.s.SetupS = append(r.s.SetupS, cr.setup.Seconds())
		if len(cr.losses) > 0 {
			warm = append(warm, lossBits(cr.losses[0]))
		}
	}
	r.checkSame("warm-up loss", warm)

	r.s.Attempted = steady
	if last.err != nil {
		r.s.Failed = 1
		r.s.Attempted = len(last.marks)
		r.problem("steady state: %v", last.err)
	}
	var cpus, skews []float64
	for i := 1; i < len(last.marks); i++ {
		prev, cur := last.marks[i-1], last.marks[i]
		r.s.OpMs = append(r.s.OpMs, ms(cur.at.Sub(prev.at)))
		cpus = append(cpus, ms(cur.cpu-prev.cpu))
		if cur.bal != nil {
			skews = append(skews, busySkew(cur.bal))
			for s := range cur.bal.Seconds {
				for _, sec := range cur.bal.Seconds[s] {
					r.stageSecs[s] += sec
				}
			}
		}
	}
	if len(r.s.OpMs) == 0 {
		return fmt.Errorf("no steady epoch completed: %v", last.err)
	}
	r.ops = len(r.s.OpMs)
	r.s.OpCPUMs = median(cpus)
	for _, l := range last.losses {
		r.s.LossBits = append(r.s.LossBits, lossBits(l))
	}
	if r.tracer != nil {
		r.clusterLayers(base, last, skews)
	}
	return nil
}

// clusterOnce sets a k-rank cluster up from the input files and trains it
// for epochs epochs. On the final set-up it opens the steady window at the
// end of the warm epoch and closes it at the end of the last, where it reads
// the live heap.
func (r *runner) clusterOnce(spec clusterSpec, epochs int, final bool) (*clusterRun, error) {
	cr := &clusterRun{reg: r.registry()}
	setup := r.span("setup")
	t0 := time.Now()
	d, err := r.load()
	if err != nil {
		return nil, err
	}
	ps := r.span("partition")
	cr.part = partition.LabelProp(d.Graph, clusterRanks, lpIters, lpSlack, r.seed)
	ps.End()
	cr.d = d

	var tcps []*rpc.TCPTransport
	if spec.tcp {
		cs := r.span("cluster.connect")
		tcps, err = connectMesh(cr.reg)
		cs.End()
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, t := range tcps {
				t.Close()
			}
		}()
	}

	var alloc allocMark
	var peersDone chan struct{}
	if spec.tcp {
		peersDone = make(chan struct{})
	}
	cfg := spec.config
	cfg.NumWorkers = clusterRanks
	cfg.Strategy = engine.StrategyHA
	cfg.Partitioning = cr.part
	cfg.Epochs = epochs
	cfg.Seed = r.seed
	cfg.Tracer = r.tracer
	cfg.Metrics = cr.reg
	ws := r.span("warm_epoch")
	cfg.OnEpoch = func(epoch int, _ float32, bal *metrics.BalanceReport) {
		if epoch == 0 {
			cr.setup = time.Since(t0)
			cr.warm = time.Since(cr.started)
			ws.End()
			setup.End()
			if final {
				runtime.GC()
				alloc = markAlloc()
				r.window[0] = r.tracer.Now()
			}
		}
		cr.marks = append(cr.marks, epochMark{at: time.Now(), cpu: cpuTime(), bal: bal})
		if final && epoch == epochs-1 {
			r.window[1] = r.tracer.Now()
			r.s.AllocMB, r.s.GCCycles = alloc.since()
			// Over TCP each rank stands for a process of its own, and rank
			// 1 runs on after the last fence; waiting until it has
			// returned makes the reading rank 0's alone, every time.
			// cluster.Train keeps every worker reachable until it returns.
			if peersDone != nil {
				<-peersDone
			}
			r.s.HeapLiveMB = liveHeapMB()
		}
	}
	factory := spec.factory(d)
	cr.started = time.Now()
	if spec.tcp {
		cr.losses, cr.bds, cr.err = runTCP(cfg, d, factory, tcps, peersDone)
	} else {
		var res *cluster.Result
		res, cr.err = cluster.Train(cfg, d, factory)
		if res != nil {
			cr.losses, cr.bds = res.Losses, res.PerWorker
		}
	}
	return cr, nil
}

// connectMesh brings up a k-rank TCP mesh on ephemeral 127.0.0.1 ports.
// Higher ranks only accept, so they listen first and lower ranks learn
// their resolved addresses.
func connectMesh(reg *metrics.Registry) ([]*rpc.TCPTransport, error) {
	addrs := make([]string, clusterRanks)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*rpc.TCPTransport, clusterRanks)
	closeAll := func() {
		for _, t := range tcps {
			if t != nil {
				t.Close()
			}
		}
	}
	for rank := clusterRanks - 1; rank >= 0; rank-- {
		t, err := rpc.NewTCPTransport(rank, append([]string(nil), addrs...))
		if err != nil {
			closeAll()
			return nil, err
		}
		if reg != nil {
			t.SetMetrics(reg)
		}
		tcps[rank] = t
		addrs[rank] = t.Addr()
	}
	errs := make([]error, clusterRanks)
	var wg sync.WaitGroup
	for rank, t := range tcps {
		wg.Add(1)
		go func(rank int, t *rpc.TCPTransport) {
			defer wg.Done()
			errs[rank] = t.Connect()
		}(rank, t)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("rank %d connect: %w", rank, err)
		}
	}
	return tcps, nil
}

// runTCP runs every rank's RunWorker over its transport and returns rank
// 0's losses, every rank's breakdown and the first error. It closes
// peersDone once every rank but 0 has returned.
func runTCP(cfg cluster.Config, d *dataset.Dataset, factory cluster.ModelFactory, tcps []*rpc.TCPTransport, peersDone chan struct{}) ([]float32, []*metrics.Breakdown, error) {
	losses := make([][]float32, len(tcps))
	bds := make([]*metrics.Breakdown, len(tcps))
	errs := make([]error, len(tcps))
	var rank0, peers sync.WaitGroup
	for rank, t := range tcps {
		wg := &peers
		if rank == 0 {
			wg = &rank0
		}
		wg.Add(1)
		go func(rank int, t *rpc.TCPTransport) {
			defer wg.Done()
			losses[rank], bds[rank], errs[rank] = cluster.RunWorker(cfg, d, factory, t)
		}(rank, t)
	}
	peers.Wait()
	close(peersDone)
	rank0.Wait()
	for _, err := range errs {
		if err != nil {
			return losses[0], bds, err
		}
	}
	for rank := 1; rank < len(losses); rank++ {
		for e := range losses[0] {
			if losses[rank][e] != losses[0][e] {
				return losses[0], bds, fmt.Errorf("rank %d epoch %d loss %v != rank 0 loss %v", rank, e, losses[rank][e], losses[0][e])
			}
		}
	}
	return losses[0], bds, nil
}

// busySkew is the slowest rank's busy time over the mean across ranks.
func busySkew(b *metrics.BalanceReport) float64 {
	busy := make([]float64, b.Ranks())
	for s := range b.Seconds {
		for rank, sec := range b.Seconds[s] {
			busy[rank] += sec
		}
	}
	var maxB, sum float64
	for _, v := range busy {
		maxB = max(maxB, v)
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return maxB / (sum / float64(len(busy)))
}

// clusterLayers reads the per-layer counts a cluster exposes outside spans.
// Exact counts per steady epoch are the difference between the final
// set-up (1+n epochs) and the first (base, one epoch), divided by n.
func (r *runner) clusterLayers(base totals, last *clusterRun, skews []float64) {
	n := float64(r.ops * r.ranks)
	t := commTotals(last)
	r.layers["collective.msgs_per_epoch"] = (t.msgs - base.msgs) / float64(r.ops)
	r.layers["collective.bytes_per_epoch"] = (t.bytes - base.bytes) / float64(r.ops)
	r.layers["collective.fence_wait_s"] = (t.fenceWait - base.fenceWait) / n
	r.layers["rpc.send_s"] = (t.send - base.send) / n
	r.layers["partition.edge_cut_share"] = float64(partition.EdgeCut(last.d.Graph, last.part)) / float64(last.d.Graph.NumEdges())
	r.layers["cluster.balance_skew"] = median(skews)
}

type totals struct{ msgs, bytes, fenceWait, send float64 }

func commTotals(cr *clusterRun) totals {
	var t totals
	for _, bd := range cr.bds {
		if bd != nil {
			t.msgs += float64(bd.MessagesSent.Load())
			t.bytes += float64(bd.BytesSent.Load())
		}
	}
	for rank := 0; rank < clusterRanks; rank++ {
		t.fenceWait += float64(cr.reg.Histogram(fmt.Sprintf("collective.fence_wait_ns.rank%d", rank)).Sum()) / 1e9
		t.send += float64(cr.reg.Histogram(fmt.Sprintf("rpc.send_ns.rank%d", rank)).Sum()) / 1e9
	}
	return t
}
