package main

import (
	"fmt"
	"sort"
	"time"

	"sand/internal/graph"
	"sand/internal/obs"
)

// layerAcc accumulates the engine's own counters and histograms, read
// from outside through each registry's Gather, over the traced
// repetitions. Counts are reported per repetition.
type layerAcc struct {
	reps      int
	delivered int64 // batches delivered without failure
	hists     map[string]*obs.Histogram
	sums      map[string]float64
	openSkew  float64 // summed over repetitions
	nextSelf  []time.Duration
	// storeMemPeak and pinnedEnd are maxima over repetitions.
	storeMemPeak int64
	pinnedEnd    int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{hists: map[string]*obs.Histogram{}, sums: map[string]float64{}}
}

// gather folds one repetition's registries in: histograms merge across
// engines, nodes and repetitions; counters and snapshot values add up.
func (a *layerAcc) gather(sys *system, delivered int) {
	a.reps++
	a.delivered += int64(delivered)
	regs := append([]*obs.Registry{}, sys.regs...)
	if sys.routerReg != nil {
		regs = append(regs, sys.routerReg)
	}
	for _, reg := range regs {
		for _, s := range reg.Gather() {
			switch s.Kind {
			case "histogram":
				h := a.hists[s.Name]
				if h == nil {
					h = obs.NewHistogram()
					a.hists[s.Name] = h
				}
				h.Merge(obs.HistogramFromSnapshot(s.Hist))
			case "counter", "snapshot":
				a.sums[s.Name] += s.Value
			}
		}
	}
	if sys.router != nil {
		opens := sys.router.Stats().OpensByNode
		var total, most int64
		for _, n := range opens {
			total += n
			most = max(most, n)
		}
		if total > 0 {
			a.openSkew += float64(most) / (float64(total) / float64(len(sys.engines)))
		}
	}
}

// quantileMS is a merged histogram's q-quantile, nanoseconds to ms.
func (a *layerAcc) quantileMS(name string, q float64) float64 {
	h := a.hists[name]
	if h == nil {
		return 0
	}
	s := h.Snapshot()
	return s.Quantile(q) / 1e6
}

// perRep is a summed count divided by the number of repetitions.
func (a *layerAcc) perRep(name string) float64 {
	return a.sums[name] / float64(max(a.reps, 1))
}

// ratio is num / (num + other) over the summed counts, 0 when both are 0.
func (a *layerAcc) ratio(num, other string) float64 {
	return safeDiv(a.sums[num], a.sums[num]+a.sums[other])
}

func safeDiv(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// metrics computes every per-layer metric except the CPU shares, the
// graph timings and the tracing overhead, which come from elsewhere.
func (a *layerAcc) metrics(spans []span, fleet bool) map[string]float64 {
	byName := map[string][]time.Duration{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s.dur)
	}
	m := map[string]float64{
		"vfs.open_ms_p50":          msOf(percentile(byName["vfs.open"], 0.5)),
		"vfs.open_ms_p90":          msOf(percentile(byName["vfs.open"], 0.9)),
		"vfs.read_ms_p50":          msOf(percentile(byName["vfs.read"], 0.5)),
		"vfs.getxattr_ms_p50":      msOf(percentile(byName["vfs.getxattr"], 0.5)),
		"core.decode_batch_ms_p50": msOf(percentile(a.nextSelf, 0.5)),

		"core.view_read_ms_p50":           a.quantileMS("core.view_read_ns", 0.5),
		"core.view_read_ms_p90":           a.quantileMS("core.view_read_ns", 0.9),
		"core.premat_hit_ratio":           safeDiv(a.sums["core.premat_hits"], a.sums["core.batches_served"]),
		"core.demand_misses":              a.perRep("core.demand_misses"),
		"core.gop_hit_ratio":              a.ratio("core.gop_hits", "core.gop_misses"),
		"core.gop_frames_decoded":         a.perRep("core.gop_frames_decoded"),
		"core.gop_evictions":              a.perRep("core.gop_evictions"),
		"core.reuse.superset_hits":        a.perRep("core.reuse.superset_hits"),
		"core.reuse.xsample_hits":         a.perRep("core.reuse.xsample_hits"),
		"sched.queue_wait_ms_p90":         a.quantileMS("sched.queue_wait_ns", 0.9),
		"sched.demand_wait_ms_p90":        a.quantileMS("sched.demand_wait_ns", 0.9),
		"sched.task_run_ms_p50":           a.quantileMS("sched.task_run_ns", 0.5),
		"sched.demand_runs":               a.perRep("sched.demand_runs"),
		"sched.premat_runs":               a.perRep("sched.premat_runs"),
		"sched.sjf_decisions":             a.perRep("sched.sjf_decisions"),
		"sched.errors":                    a.perRep("sched.errors"),
		"storage.hit_ratio":               a.ratio("storage.hits", "storage.misses"),
		"storage.evictions":               a.perRep("storage.evictions"),
		"storage.mem_bytes_peak":          float64(a.storeMemPeak),
		"storage.pinned_bytes_end":        float64(a.pinnedEnd),
		"viewserver.request_ms_p50":       a.quantileMS("viewserver.request_ns", 0.5),
		"viewserver.request_ms_p90":       a.quantileMS("viewserver.request_ns", 0.9),
		"viewserver.wire_bytes_per_batch": safeDiv(a.sums["viewserver.wire_bytes"], float64(a.delivered)),
		"viewserver.readahead_hit_ratio":  a.ratio("viewserver.readahead.hit", "viewserver.readahead.miss"),
		"viewserver.zerocopy_ratio":       a.ratio("viewserver.dataplane.zerocopy.hit", "viewserver.dataplane.copy.fallback"),
		"fleet.materialize_per_batch":     0,
		"fleet.open_skew":                 0,
		"fleet.router.failovers":          a.perRep("fleet.router.failovers"),
	}
	if fleet {
		m["fleet.materialize_per_batch"] = safeDiv(a.sums["sched.demand_runs"]+a.sums["sched.premat_runs"], float64(a.delivered))
		m["fleet.open_skew"] = a.openSkew / float64(max(a.reps, 1))
	}
	return m
}

// graphMetrics times graph.BuildChunkPlan on the workload's tasks and
// video metadata — the planning core.New does for chunk 0 — and counts
// the plan's decode and augmentation ops. plan_ms is the median of five
// builds.
func graphMetrics(in *inputs) (map[string]float64, error) {
	specs := make([]graph.TaskSpec, 0, len(in.tasks))
	for _, t := range in.tasks {
		specs = append(specs, graph.TaskSpec{Task: t})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Task.Tag < specs[j].Task.Tag })
	metas := make([]graph.VideoMeta, len(in.ds.Videos))
	for i, v := range in.ds.Videos {
		metas[i] = graph.VideoMeta{
			Name: v.Spec.Name, Frames: v.Spec.Frames,
			W: v.Spec.W, H: v.Spec.H, C: v.Spec.C, GOP: v.Spec.GOP,
			EncodedBytes: int64(v.Video.Bytes()),
		}
	}
	params := graph.PlanParams{Epochs: in.w.chunkEpochs, Coordinate: true, Seed: in.seed}
	var times []time.Duration
	var plan *graph.ChunkPlan
	for i := 0; i < 5; i++ {
		t := time.Now()
		p, err := graph.BuildChunkPlan(specs, metas, params)
		if err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		times = append(times, time.Since(t))
		plan = p
	}
	var decode, aug int
	for op, n := range plan.OpCounts() {
		if op == "decode" {
			decode += n
		} else {
			aug += n
		}
	}
	return map[string]float64{
		"graph.plan_ms":    msOf(percentile(times, 0.5)),
		"graph.decode_ops": float64(decode),
		"graph.aug_ops":    float64(aug),
	}, nil
}
