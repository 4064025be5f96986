package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/metrics"
	"sand/internal/sched"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

// sched benchmarks the closed-loop scheduling additions (DESIGN.md §11)
// in three parts:
//
//   - overload: a premat flood against a small pool, demand-path
//     queue-wait p99 with admission control closed-loop vs static
//     (admission disabled). Steady-state p99 (after the controller's
//     warm-up) is the gated number.
//   - uncontended: a real-engine epoch with a generous DemandSLO vs
//     none — the admission bookkeeping must be free when the SLO is
//     never threatened.
//   - readahead: a sequential remote reader against a slow mount with
//     the fixed DefaultReadAhead depth vs the adaptive controller, plus
//     a stalled client that must stay inside the prefetch byte budget.
//
// Every gated number is also printed as a "METRIC name value" line for
// scripts/bench_sched.sh, which writes BENCH_sched.json and enforces
// the floors.

func init() {
	register("sched", "sched: closed-loop admission + adaptive read-ahead vs static baselines", runSchedBench)
}

func metric(name string, value float64) {
	fmt.Printf("METRIC %s %g\n", name, value)
}

func runSchedBench() error {
	// Part A: premat overload.
	staticP99, staticStats, err := schedOverloadRun(0)
	if err != nil {
		return err
	}
	closedP99, closedStats, err := schedOverloadRun(300 * time.Microsecond)
	if err != nil {
		return err
	}
	if closedStats.AdmissionEngages == 0 {
		return fmt.Errorf("sched bench: admission control never engaged under overload")
	}
	improvement := float64(staticP99) / float64(closedP99)
	t := metrics.NewTable(
		"Premat overload: demand queue-wait p99, steady state",
		"arm", "p99 µs", "admission engages", "premat shed", "premat rejected")
	t.AddRow("static", staticP99/1e3, staticStats.AdmissionEngages, staticStats.AdmissionShed, staticStats.AdmissionRejected)
	t.AddRow("closed-loop", closedP99/1e3, closedStats.AdmissionEngages, closedStats.AdmissionShed, closedStats.AdmissionRejected)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("demand p99 %s lower with admission control\n", metrics.Ratio(improvement))
	metric("sched.overload.static_p99_ns", float64(staticP99))
	metric("sched.overload.closed_p99_ns", float64(closedP99))
	metric("sched.overload.improvement", improvement)

	// Part B: uncontended epoch time with and without an SLO armed. An
	// epoch takes milliseconds, so one run per arm is mostly noise: the
	// arms alternate uncontendedRuns times and each reports its median.
	var offs, ons []float64
	for i := 0; i < uncontendedRuns; i++ {
		off, err := schedEpochRun(0)
		if err != nil {
			return err
		}
		on, err := schedEpochRun(50 * time.Millisecond)
		if err != nil {
			return err
		}
		offs, ons = append(offs, float64(off)), append(ons, float64(on))
	}
	offNS, onNS := metrics.Summarize(offs).P50, metrics.Summarize(ons).P50
	overhead := onNS / offNS
	t = metrics.NewTable(
		"Uncontended epoch: admission bookkeeping overhead",
		"arm", "ns/epoch")
	t.AddRow("slo-off", offNS)
	t.AddRow("slo-on", onNS)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("slo-on/slo-off epoch-time ratio %.3f\n", overhead)
	metric("sched.uncontended.off_ns", offNS)
	metric("sched.uncontended.on_ns", onNS)
	metric("sched.uncontended.overhead", overhead)

	// Part C: adaptive read-ahead vs the fixed default depth.
	fixedRate, _, err := schedReadaheadRun(false)
	if err != nil {
		return err
	}
	adaptiveRate, adaptiveDepth, err := schedReadaheadRun(true)
	if err != nil {
		return err
	}
	maxPinned, bounded, err := schedStalledRun()
	if err != nil {
		return err
	}
	t = metrics.NewTable(
		"Sequential remote reads: fixed vs adaptive read-ahead",
		"arm", "hit rate", "final depth")
	t.AddRow("fixed-2", metrics.Pct(fixedRate), viewserver.DefaultReadAhead)
	t.AddRow("adaptive", metrics.Pct(adaptiveRate), adaptiveDepth)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("stalled client: max unclaimed prefetch bytes %d (bounded=%v)\n", maxPinned, bounded)
	metric("sched.readahead.fixed_hitrate", fixedRate)
	metric("sched.readahead.adaptive_hitrate", adaptiveRate)
	metric("sched.readahead.stalled_max_pinned", float64(maxPinned))
	if bounded {
		metric("sched.readahead.stalled_bounded", 1)
	} else {
		metric("sched.readahead.stalled_bounded", 0)
	}
	return nil
}

// schedOverloadRun floods a two-worker pool with long premat tasks while
// a paced demand stream measures its queue waits. It returns the
// steady-state demand wait p99 (warm-up samples excluded from both arms
// alike) and the pool's final stats. slo==0 disables admission control:
// the static baseline.
func schedOverloadRun(slo time.Duration) (int64, sched.Stats, error) {
	const (
		prematRun    = 2 * time.Millisecond
		prematBurst  = 600
		demandEvery  = time.Millisecond
		demandTotal  = 400
		demandWarmup = 100
	)
	pool, err := sched.NewPool(sched.Options{Workers: 2, AdmissionSLO: slo})
	if err != nil {
		return 0, sched.Stats{}, err
	}
	defer pool.Close()

	prematTask := func(i int64) *sched.Task {
		return &sched.Task{
			Kind:      sched.Premat,
			Deadline:  i,
			Remaining: 4,
			Sig:       "bench.premat",
			Run: func() error {
				time.Sleep(prematRun)
				return nil
			},
		}
	}
	// Premat flood: a burst deep enough to outlast the measurement
	// window, then a top-up stream at the workers' consumption rate,
	// retrying politely when admission is closed.
	for i := int64(0); i < prematBurst; i++ {
		if err := pool.Submit(prematTask(i)); err != nil && !errors.Is(err, sched.ErrAdmission) {
			return 0, sched.Stats{}, err
		}
	}
	var stop atomic.Bool
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for i := int64(prematBurst); !stop.Load(); i++ {
			err := pool.Submit(prematTask(i))
			if err != nil && !errors.Is(err, sched.ErrAdmission) {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	waits := make([]int64, 0, demandTotal)
	var mu sync.Mutex
	var demand sync.WaitGroup
	for i := 0; i < demandTotal; i++ {
		demand.Add(1)
		enq := time.Now()
		err := pool.Submit(&sched.Task{
			Kind:      sched.Demand,
			Remaining: 1,
			Sig:       "bench.demand",
			Run: func() error {
				wait := time.Since(enq).Nanoseconds()
				mu.Lock()
				waits = append(waits, wait)
				mu.Unlock()
				demand.Done()
				return nil
			},
		})
		if err != nil {
			demand.Done()
			stop.Store(true)
			feeder.Wait()
			return 0, sched.Stats{}, err
		}
		time.Sleep(demandEvery)
	}
	demand.Wait()
	stop.Store(true)
	feeder.Wait()

	steady := waits[demandWarmup:]
	sort.Slice(steady, func(a, b int) bool { return steady[a] < steady[b] })
	p99 := steady[(99*len(steady)-1)/100]
	return p99, pool.Stats(), nil
}

// uncontendedRuns is how many times each uncontended arm runs.
const uncontendedRuns = 15

// schedEpochRun measures wall time for a small real-engine run with the
// given DemandSLO (0 = admission bookkeeping off).
func schedEpochRun(slo time.Duration) (int64, error) {
	ds, err := dataset.Generate("schedbench", dataset.VideoSpec{
		W: 64, H: 64, C: 3, Frames: 24, FPS: 30, GOP: 8,
	}, 8, 13)
	if err != nil {
		return 0, err
	}
	task := &config.Task{
		Tag:         "sched",
		Source:      config.SourceFile,
		DatasetPath: "/data/schedbench",
		Sampling:    config.Sampling{VideosPerBatch: 4, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"out"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{48, 48}}}},
		}},
	}
	if err := task.Validate(); err != nil {
		return 0, err
	}
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 2,
		MemBudget:   32 << 20,
		Workers:     4,
		Coordinate:  true,
		Seed:        17,
		DemandSLO:   slo,
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	loader, err := svc.NewLoader("sched")
	if err != nil {
		return 0, err
	}
	iters, err := svc.ItersPerEpoch("sched")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for epoch := 0; epoch < 2; epoch++ {
		for it := 0; it < iters; it++ {
			if _, _, err := loader.Next(epoch, it); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start).Nanoseconds(), nil
}

// benchSlowViews is a synthetic view source whose batch views take a
// fixed wall time to materialize, so prefetch depth is what decides the
// hit rate.
type benchSlowViews struct {
	size  int
	delay time.Duration
}

func (p benchSlowViews) Materialize(vp vfs.Path) ([]byte, map[string]string, error) {
	if vp.Kind == vfs.KindBatchView {
		if vp.Epoch >= 4 || vp.Iteration >= 48 {
			return nil, nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, vp.Raw)
		}
		time.Sleep(p.delay)
	}
	out := make([]byte, p.size)
	for i := range out {
		out[i] = byte(i + vp.Iteration)
	}
	return out, map[string]string{"user.sand.kind": vp.Kind.String()}, nil
}

func (p benchSlowViews) List(dir string) ([]string, error) { return nil, vfs.ErrNotExist }

// schedReadaheadRun reads two epochs sequentially through a viewserver
// and returns the prefetch hit rate (and, for the adaptive arm, the
// final session depth).
func schedReadaheadRun(adaptive bool) (float64, int, error) {
	opts := viewserver.Options{ReadAhead: viewserver.DefaultReadAhead}
	if adaptive {
		opts = viewserver.Options{AdaptiveReadAhead: true}
	}
	srv := viewserver.New(vfs.New(benchSlowViews{size: 64 << 10, delay: time.Millisecond}), opts)
	defer srv.Close()
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer cli.Shutdown()
	for epoch := 0; epoch < 2; epoch++ {
		for it := 0; it < 48; it++ {
			fd, err := cli.Open(fmt.Sprintf("/bench/%d/%d/view", epoch, it))
			if err != nil {
				return 0, 0, err
			}
			cli.Close(fd)
		}
	}
	depth := 0
	if d := srv.ReadaheadDepths(); len(d) > 0 {
		depth = d[len(d)-1]
	}
	return srv.Stats().ReadaheadHitRate(), depth, nil
}

// schedStalledRun opens a handful of views with long pauses against an
// adaptive server with a small prefetch byte budget and reports the
// maximum unclaimed prefetch bytes seen and whether they stayed inside
// budget + one round of in-flight prefetches.
func schedStalledRun() (int64, bool, error) {
	const (
		viewSize = 64 << 10
		budget   = 2 * viewSize
		maxDepth = 8
	)
	srv := viewserver.New(vfs.New(benchSlowViews{size: viewSize, delay: time.Millisecond}), viewserver.Options{
		AdaptiveReadAhead: true,
		ReadAhead:         2,
		ReadAheadMax:      maxDepth,
		ReadAheadBudget:   budget,
	})
	defer srv.Close()
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, false, err
	}
	cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
	if err != nil {
		return 0, false, err
	}
	defer cli.Shutdown()
	var maxPinned int64
	for it := 0; it < 8; it++ {
		fd, err := cli.Open(fmt.Sprintf("/bench/0/%d/view", it))
		if err != nil {
			return 0, false, err
		}
		cli.Close(fd)
		time.Sleep(20 * time.Millisecond) // the stall: prefetches land, nothing drains them
		if b := srv.Stats().ReadaheadBytes; b > maxPinned {
			maxPinned = b
		}
	}
	bound := int64(budget + maxDepth*viewSize)
	return maxPinned, maxPinned <= bound, nil
}
