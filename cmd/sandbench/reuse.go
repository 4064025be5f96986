package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/metrics"
)

// batchOverlap gates the cross-sample arm: batches of single-chain
// samples whose crops overlap, measured with batch-scoped planning on
// and off. On by default so CI always covers the cross-sample path.
var batchOverlap = flag.Bool("batch-overlap", true, "include the cross-sample batch-overlap arm in the reuse experiment")

// reuse measures overlap-aware superset-crop reuse (DESIGN.md §9) on the
// real engine: four distinct 64x64 crop views of one resized 80x80 frame
// — overlapping but not identical, so the concrete-graph merge cannot
// unify them — consumed for three epochs with the rewrite on and off.
// The run fails if the two arms' batch bytes differ: the speedup column
// is only meaningful because the rewrite is exact. It is the CLI
// companion to BenchmarkOverlappingViews.

func init() {
	register("reuse", "core: superset-crop reuse over four overlapping views, on vs off (exact rewrite)", func() error {
		onNs, onStats, onDig, err := reuseRun(core.ReuseBatch)
		if err != nil {
			return err
		}
		offNs, _, offDig, err := reuseRun(core.ReuseOff)
		if err != nil {
			return err
		}
		if onDig != offDig {
			return fmt.Errorf("reuse arms diverged: %s vs %s (rewrite must be exact)", onDig[:12], offDig[:12])
		}
		// Every view-frame needs the shared prefix; the off arm runs it
		// once per view, the reuse arm once per superset miss.
		views := onStats.SupersetHits + onStats.SupersetMisses
		t := metrics.NewTable(
			"Overlapping views: superset reuse on vs off (byte-identical output)",
			"arm", "ns/batch", "prefix runs", "views served")
		t.AddRow("reuse", onNs, onStats.SupersetMisses, views)
		t.AddRow("off", offNs, views, views)
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("prefix work %s lower with reuse; end-to-end ns/batch also pays batch encode, which both arms share.\n",
			metrics.Ratio(float64(views)/float64(onStats.SupersetMisses)))
		if *batchOverlap {
			// Cross-sample arm: four single-chain samples per batch — a
			// per-sample planner has nothing to group inside one chain, so
			// the whole difference is batch-scoped planning.
			bNs, bStats, bDig, err := batchOverlapRun(core.ReuseBatch)
			if err != nil {
				return err
			}
			sNs, _, sDig, err := batchOverlapRun(core.ReuseSample)
			if err != nil {
				return err
			}
			if bDig != sDig {
				return fmt.Errorf("batch-overlap arms diverged: %s vs %s (batch scope must be exact)", bDig[:12], sDig[:12])
			}
			bt := metrics.NewTable(
				"Batch-overlap: cross-sample superset sharing, batch-scoped vs per-sample planning (byte-identical output)",
				"arm", "ns/batch", "xsample hits", "xsample groups")
			bt.AddRow("batch", bNs, bStats.XSampleHits, bStats.XSampleGroups)
			bt.AddRow("sample", sNs, 0, 0)
			if err := bt.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("batch scope served %d views through %d cross-sample groups (per-sample planning: zero); ns/batch is encode-dominated here — the isolated gate lives in BENCH_reuse.json.\n",
				bStats.XSampleHits, bStats.XSampleGroups)
		}
		fmt.Println("isolated materialization hot path: make bench-reuse (BENCH_reuse.json, gates >=1.5x / >=2x)")
		return nil
	})
}

// reuseRun consumes every batch of a three-epoch run and returns mean
// ns/batch, the reuse counters, and a digest of all output bytes.
func reuseRun(level core.ReuseLevel) (int64, core.ReuseStats, string, error) {
	ds, err := dataset.Generate("reusebench", dataset.VideoSpec{
		W: 96, H: 96, C: 3, Frames: 40, FPS: 30, GOP: 10,
	}, 8, 7)
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	task := &config.Task{
		Tag:         "reuse",
		Source:      config.SourceFile,
		DatasetPath: "/data/reusebench",
		Sampling:    config.Sampling{VideosPerBatch: 4, FramesPerVideo: 8, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"base"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}}},
			},
			{
				Name: "views", Type: config.BranchMulti,
				Inputs: []string{"base"}, Outputs: []string{"v0", "v1", "v2", "v3"},
				Branches: []config.SubBranch{
					{Ops: []config.OpSpec{{Op: "crop", Params: map[string]any{"shape": []any{64, 64}, "x": 0, "y": 0}}}},
					{Ops: []config.OpSpec{{Op: "crop", Params: map[string]any{"shape": []any{64, 64}, "x": 16, "y": 16}}}},
					{Ops: []config.OpSpec{{Op: "crop", Params: map[string]any{"shape": []any{64, 64}, "x": 8, "y": 0}}}},
					{Ops: []config.OpSpec{{Op: "crop", Params: map[string]any{"shape": []any{64, 64}, "x": 0, "y": 12}}}},
				},
			},
			{
				Name: "join", Type: config.BranchMerge,
				Inputs: []string{"v0", "v1", "v2", "v3"}, Outputs: []string{"merged"},
			},
		},
	}
	if err := task.Validate(); err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 3,
		MemBudget:   8 << 20,
		// StorageBudget 1 prunes all intermediate caching — the
		// memory-pressure regime where the store tier cannot hold per-view
		// leaves and the off arm pays the full prefix per view. This is
		// where the superset rewrite earns its keep; with a generous
		// budget both arms converge on store-tier hits.
		StorageBudget: 1,
		// Large enough for the whole decoded corpus (~9 MiB): decode
		// amplification would otherwise dominate both arms and bury the
		// augmentation cost this experiment compares.
		GOPCacheBudget: 32 << 20,
		Workers:        4,
		Coordinate:     true,
		Seed:           11,
		Reuse:          level,
	})
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	defer svc.Close()
	loader, err := svc.NewLoader("reuse")
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	iters, err := svc.ItersPerEpoch("reuse")
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	h := sha256.New()
	batches := 0
	start := time.Now()
	for epoch := 0; epoch < 3; epoch++ {
		for it := 0; it < iters; it++ {
			batch, _, err := loader.Next(epoch, it)
			if err != nil {
				return 0, core.ReuseStats{}, "", err
			}
			for _, clip := range batch.Clips {
				for _, f := range clip.Frames {
					h.Write(f.Pix)
				}
			}
			batches++
		}
	}
	elapsed := time.Since(start)
	return elapsed.Nanoseconds() / int64(batches), svc.ReuseStats(), hex.EncodeToString(h.Sum(nil)), nil
}

// batchOverlapRun consumes every batch of a three-epoch run of the
// cross-sample workload: four single-chain samples per batch whose
// random 64x64 crops resolve inside a shared 72x72 window (the helper
// task widens the window and is never read; its tag sorts after the
// measured task's, which is where the chunk planner anchors the window
// geometry). Returns mean ns/batch, reuse counters, and an output
// digest.
func batchOverlapRun(level core.ReuseLevel) (int64, core.ReuseStats, string, error) {
	ds, err := dataset.Generate("xsoverlap", dataset.VideoSpec{
		W: 96, H: 96, C: 3, Frames: 40, FPS: 30, GOP: 10,
	}, 6, 7)
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	measured := &config.Task{
		Tag:         "xs",
		Source:      config.SourceFile,
		DatasetPath: "/data/xsoverlap",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 4},
		Stages: []config.Stage{
			{
				Name: "aug", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{64, 64}}},
				},
			},
		},
	}
	helper := &config.Task{
		Tag:         "zwin",
		Source:      config.SourceFile,
		DatasetPath: "/data/xsoverlap",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "wide", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{80, 80}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{72, 72}}},
				},
			},
		},
	}
	for _, t := range []*config.Task{measured, helper} {
		if err := t.Validate(); err != nil {
			return 0, core.ReuseStats{}, "", err
		}
	}
	svc, err := core.New(core.Options{
		Tasks:          []*config.Task{measured, helper},
		Dataset:        ds,
		ChunkEpochs:    2,
		TotalEpochs:    3,
		MemBudget:      8 << 20,
		StorageBudget:  1,        // prune store caching (see reuseRun)
		GOPCacheBudget: 32 << 20, // hold the decoded corpus
		Workers:        4,
		Coordinate:     true,
		Seed:           11,
		Reuse:          level,
	})
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	defer svc.Close()
	loader, err := svc.NewLoader("xs")
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	iters, err := svc.ItersPerEpoch("xs")
	if err != nil {
		return 0, core.ReuseStats{}, "", err
	}
	h := sha256.New()
	batches := 0
	start := time.Now()
	for epoch := 0; epoch < 3; epoch++ {
		for it := 0; it < iters; it++ {
			batch, _, err := loader.Next(epoch, it)
			if err != nil {
				return 0, core.ReuseStats{}, "", err
			}
			for _, clip := range batch.Clips {
				for _, f := range clip.Frames {
					h.Write(f.Pix)
				}
			}
			batches++
		}
	}
	elapsed := time.Since(start)
	return elapsed.Nanoseconds() / int64(batches), svc.ReuseStats(), hex.EncodeToString(h.Sum(nil)), nil
}
