package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sand/internal/config"
	"sand/internal/dataset"
)

// TestCropRectMath pins the rectangle predicates the reuse planner is
// built on: strict overlap (shared edges don't count, one shared pixel
// does) and bounding-box union.
func TestCropRectMath(t *testing.T) {
	a := cropRect{0, 0, 32, 32}
	cases := []struct {
		b    cropRect
		want bool
	}{
		{cropRect{16, 16, 32, 32}, true}, // plain overlap
		{cropRect{31, 31, 33, 33}, true}, // exactly one shared pixel
		{cropRect{32, 0, 16, 16}, false}, // shared vertical edge
		{cropRect{0, 32, 16, 16}, false}, // shared horizontal edge
		{cropRect{32, 32, 8, 8}, false},  // shared corner
		{cropRect{40, 40, 8, 8}, false},  // disjoint
		{cropRect{8, 8, 8, 8}, true},     // fully contained
		{cropRect{0, 0, 32, 32}, true},   // identical
		{cropRect{-8, -8, 9, 9}, true},   // 1-pixel overlap from the other corner
	}
	for _, tc := range cases {
		if got := a.overlaps(tc.b); got != tc.want {
			t.Errorf("overlaps(%v, %v) = %v, want %v", a, tc.b, got, tc.want)
		}
		if got := tc.b.overlaps(a); got != tc.want {
			t.Errorf("overlaps not symmetric for %v, %v", a, tc.b)
		}
	}
	u := a.union(cropRect{16, 24, 32, 32})
	if u != (cropRect{0, 0, 48, 56}) {
		t.Fatalf("union = %v, want {0 0 48 56}", u)
	}
	if u = a.union(cropRect{8, 8, 8, 8}); u != a {
		t.Fatalf("union with contained rect = %v, want %v", u, a)
	}
}

// overlapTask builds a resize -> multi(crop branches) -> merge pipeline:
// several views of the same 64x64 intermediate, each a crop stage given
// by op specs. With samplesPerVideo > 1 a batch holds several samples of
// one video, so the views can also share across samples.
func overlapTask(t testing.TB, tag string, samplesPerVideo int, branches []config.OpSpec) *config.Task {
	t.Helper()
	outs := make([]string, len(branches))
	subs := make([]config.SubBranch, len(branches))
	for i, spec := range branches {
		outs[i] = fmt.Sprintf("v%d", i)
		subs[i] = config.SubBranch{Ops: []config.OpSpec{spec}}
	}
	task := &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: samplesPerVideo},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"base"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}}},
			},
			{
				Name: "views", Type: config.BranchMulti,
				Inputs: []string{"base"}, Outputs: outs,
				Branches: subs,
			},
			{
				Name: "join", Type: config.BranchMerge,
				Inputs: outs, Outputs: []string{"merged"},
			},
		},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return task
}

func crop(h, w, x, y int) config.OpSpec {
	return config.OpSpec{Op: "crop", Params: map[string]any{"shape": []any{h, w}, "x": x, "y": y}}
}

// buildReuseService starts a service with an effectively disabled object
// store (StorageBudget 1) so every chain recomputes unless the reuse
// layer shares work.
func buildReuseService(t testing.TB, task *config.Task, ds *dataset.Dataset, workers int, reuse ReuseLevel) *Service {
	t.Helper()
	return buildReuseServiceTasks(t, []*config.Task{task}, ds, workers, reuse)
}

func buildReuseServiceTasks(t testing.TB, tasks []*config.Task, ds *dataset.Dataset, workers int, reuse ReuseLevel) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:         tasks,
		Dataset:       ds,
		ChunkEpochs:   1,
		TotalEpochs:   1,
		MemBudget:     64 << 20,
		StorageBudget: 1,
		Workers:       workers,
		Coordinate:    true,
		Seed:          11,
		Reuse:         reuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// serviceDigest materializes every iteration of epoch 0 and hashes all
// output pixels in order.
func serviceDigest(t testing.TB, s *Service, tag string) string {
	t.Helper()
	loader, err := s.NewLoader(tag)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := s.ItersPerEpoch(tag)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for it := 0; it < iters; it++ {
		batch, _, err := loader.Next(0, it)
		if err != nil {
			t.Fatal(err)
		}
		for _, clip := range batch.Clips {
			for _, f := range clip.Frames {
				fmt.Fprintf(h, "%d:%dx%dx%d:", f.Index, f.W, f.H, f.C)
				h.Write(f.Pix)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reuseLevels is every Reuse setting, batch (the default) first.
var reuseLevels = []struct {
	name  string
	level ReuseLevel
}{{"batch", ReuseBatch}, {"sample", ReuseSample}, {"off", ReuseOff}}

// checkReuseLevels runs tasks at every reuse level with each worker count
// and reads tasks[0]. All runs must produce the same bytes, and each
// level must do the sharing it promises: superset hits at batch and
// sample level (at sample level only when a sample holds overlapping
// chains of its own, withinSample), none when off, and cross-sample hits
// only at batch level. Several workers race on derived-frame
// publication, so worker count must not leak into bytes either.
func checkReuseLevels(t *testing.T, ds *dataset.Dataset, tasks []*config.Task, workerCounts []int, withinSample bool) {
	t.Helper()
	tag := tasks[0].Tag
	want := ""
	for _, lv := range reuseLevels {
		for _, workers := range workerCounts {
			s := buildReuseServiceTasks(t, tasks, ds, workers, lv.level)
			d := serviceDigest(t, s, tag)
			if want == "" {
				want = d
			} else if d != want {
				t.Fatalf("%s with %d workers: digest %s differs from batch/%d %s", lv.name, workers, d[:12], workerCounts[0], want[:12])
			}
			rs := s.ReuseStats()
			switch lv.level {
			case ReuseBatch:
				if rs.SupersetHits == 0 || rs.XSampleHits == 0 || rs.XSampleGroups == 0 {
					t.Fatalf("batch/%d: superset or cross-sample reuse never fired: %+v", workers, rs)
				}
			case ReuseSample:
				if (rs.SupersetHits > 0) != withinSample || rs.XSampleHits != 0 || rs.XSampleGroups != 0 {
					t.Fatalf("sample/%d: superset hits %d (within-sample overlap %v), cross-sample %+v",
						workers, rs.SupersetHits, withinSample, rs)
				}
			case ReuseOff:
				if rs.SupersetHits != 0 || rs.SupersetMisses != 0 || rs.XSampleHits != 0 {
					t.Fatalf("off/%d: reuse still ran: %+v", workers, rs)
				}
			}
		}
	}
}

// TestSupersetByteIdentical: for fixed, centered and shared-origin
// random crop views — including a 1-pixel overlap — every reuse level
// with one and four workers must produce the same bytes, and the
// superset path must fire wherever the level allows it.
func TestSupersetByteIdentical(t *testing.T) {
	ds := miniDataset(t, 4)
	cases := []struct {
		name     string
		branches []config.OpSpec
	}{
		{"fixed", []config.OpSpec{crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 0), crop(48, 48, 0, 8)}},
		{"one-pixel", []config.OpSpec{crop(32, 32, 0, 0), crop(32, 32, 31, 31)}},
		{"centered", []config.OpSpec{
			{Op: "center_crop", Params: map[string]any{"shape": []any{48, 48}}},
			crop(48, 48, 0, 0),
		}},
		{"random", []config.OpSpec{
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
			{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			task := overlapTask(t, "ov-"+tc.name, 2, tc.branches)
			checkReuseLevels(t, ds, []*config.Task{task}, []int{1, 4}, true)
		})
	}
}

// TestSupersetSerialParallelIdentical: worker count must not leak into
// output bytes when the superset path races on derived-frame publication
// (first-in wins, all candidates identical), at any reuse level.
func TestSupersetSerialParallelIdentical(t *testing.T) {
	ds := miniDataset(t, 4)
	task := overlapTask(t, "serpar", 2, []config.OpSpec{
		crop(48, 48, 0, 0), crop(48, 48, 16, 16), crop(48, 48, 8, 4), crop(48, 48, 2, 12),
	})
	checkReuseLevels(t, ds, []*config.Task{task}, []int{1, 8}, true)
}

// TestDisjointWindowsNoReuse: windows with no common pixels (including
// edge-adjacent ones) must not form a group — reuse is a no-op and the
// output matches the baseline.
func TestDisjointWindowsNoReuse(t *testing.T) {
	ds := miniDataset(t, 4)
	task := overlapTask(t, "disjoint", 1, []config.OpSpec{
		crop(16, 16, 0, 0), crop(16, 16, 48, 48), crop(16, 16, 16, 0),
	})
	on := buildReuseService(t, task, ds, 4, ReuseBatch)
	off := buildReuseService(t, task, ds, 4, ReuseOff)
	if d1, d2 := serviceDigest(t, on, task.Tag), serviceDigest(t, off, task.Tag); d1 != d2 {
		t.Fatalf("disjoint-window output differs from baseline")
	}
	rs := on.ReuseStats()
	if rs.SupersetHits != 0 || rs.SupersetMisses != 0 {
		t.Fatalf("disjoint windows formed a reuse group: %+v", rs)
	}
}

// batchOverlapTasks builds the two-task workload that makes cross-sample
// sharing visible. The measured task materializes four single-chain
// samples per video — a per-sample planner has nothing to group inside a
// single chain — whose random crops all resolve inside the shared
// coordination window and therefore overlap. The helper task exists only
// to widen that window (its crop requirement exceeds the measured one,
// so measured crops vary within the window instead of collapsing onto
// it); it samples one frame per video and is never read. Tags matter:
// the chunk planner sorts tasks alphabetically and places the window in
// tasks[0]'s pre-crop geometry, so the measured tag must sort first.
func batchOverlapTasks(tb testing.TB, suffix string) (measured, helper *config.Task) {
	tb.Helper()
	measured = &config.Task{
		Tag:         "xs" + suffix,
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 6, FrameStride: 2, SamplesPerVideo: 4},
		Stages: []config.Stage{
			{
				Name: "aug", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{48, 48}}},
				},
			},
		},
	}
	helper = &config.Task{
		Tag:         "zwin" + suffix,
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "wide", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{64, 64}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{56, 56}}},
				},
			},
		},
	}
	for _, t := range []*config.Task{measured, helper} {
		if err := t.Validate(); err != nil {
			tb.Fatal(err)
		}
	}
	return measured, helper
}

// TestBatchScopeByteIdentical: batch-scoped planning must fire across
// samples (nonzero cross-sample hits on a workload of single-chain
// samples) and stay byte-identical to per-sample planning and to reuse
// off; per-sample planning must form no cross-sample groups.
func TestBatchScopeByteIdentical(t *testing.T) {
	ds := miniDataset(t, 3)
	measured, helper := batchOverlapTasks(t, "-id")
	checkReuseLevels(t, ds, []*config.Task{measured, helper}, []int{1, 4}, false)
}

// TestBatchScopeSerialParallelIdentical: worker count must not leak into
// output bytes when cross-sample groups race on derived-frame
// publication.
func TestBatchScopeSerialParallelIdentical(t *testing.T) {
	ds := miniDataset(t, 3)
	measured, helper := batchOverlapTasks(t, "-sp")
	checkReuseLevels(t, ds, []*config.Task{measured, helper}, []int{1, 8}, false)
}
