package main

import (
	"fmt"
	"sort"

	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/gpusim"
	"sand/internal/trainsim"
)

// workload is one fixed benchmark input: a dataset shape, the tasks the
// trainers read, and the engine (or fleet) configuration serving them.
// NOTES.md records why each one exists.
type workload struct {
	name string
	// videos, w, h, frames shape the Kinetics-like miniature dataset,
	// generated from the workload seed.
	videos, w, h, frames int
	tasks                func() ([]*config.Task, error)
	// fleetNodes > 0 serves the tasks from that many viewserver nodes
	// behind one fleet.Router; 0 reads the in-process filesystem.
	fleetNodes int
	// workers sizes each engine's preprocessing pool.
	workers int
	// memBudget is each engine's MemBudget.
	memBudget int64
	// chunkEpochs is the plan chunk length; epochs is how many epochs a
	// repetition reads. epochs > chunkEpochs, so every repetition
	// crosses a plan-chunk boundary.
	chunkEpochs, epochs int
}

var workloads = []*workload{
	{
		// Multi-task sharing (paper Fig. 13): a SlowFast-shaped and an
		// MAE-shaped task over one dataset, everything resident.
		name:   "local-multitask",
		videos: 18, w: 128, h: 72, frames: 90,
		tasks: func() ([]*config.Task, error) {
			return []*config.Task{
				trainsim.WorkloadTaskForTests(gpusim.SlowFast, "slowfast", 1),
				trainsim.WorkloadTaskForTests(gpusim.MAE, "mae", 1),
			}, nil
		},
		workers:     2,
		memBudget:   256 << 20,
		chunkEpochs: 2, epochs: 3,
	},
	{
		// Two nodes behind one router: four overlapping fixed crop
		// views (two samples per video) beside the MAE-shaped task.
		name:   "fleet-overlap",
		videos: 18, w: 128, h: 72, frames: 90,
		tasks: func() ([]*config.Task, error) {
			overlap, err := config.LoadTask(overlapYAML)
			if err != nil {
				return nil, err
			}
			return []*config.Task{overlap, trainsim.WorkloadTaskForTests(gpusim.MAE, "mae", 1)}, nil
		},
		fleetNodes:  2,
		workers:     1,
		memBudget:   256 << 20,
		chunkEpochs: 2, epochs: 3,
	},
	{
		// Sparse sampling from long 16:9 clips with a small output, under
		// a memory budget about a quarter of what a repetition
		// materializes: decode-bound, with eviction throughout.
		name:   "decode-pressure",
		videos: 18, w: 256, h: 144, frames: 300,
		tasks: func() ([]*config.Task, error) {
			var out []*config.Task
			for _, tag := range []string{"sparse-a", "sparse-b"} {
				t, err := config.LoadTask(fmt.Sprintf(sparseYAML, tag))
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		},
		workers:     2,
		memBudget:   480 << 10,
		chunkEpochs: 2, epochs: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// dataset generates the workload's videos from the seed.
func (w *workload) dataset(seed int64) (*dataset.Dataset, error) {
	return dataset.Kinetics400.Miniature(w.videos, w.w, w.h, w.frames, seed)
}

// overlapYAML is the quickstart's four-view overlapping-crop shape with
// two samples per video, so crop windows overlap within a sample and
// across the samples of a batch.
const overlapYAML = `
dataset:
  tag: "overlap"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 1
    frames_per_video: 4
    frame_stride: 2
    samples_per_video: 2
  augmentation:
  - name: "augment_resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["base"]
    config:
    - resize:
        shape: [80, 80]
        interpolation: ["bilinear"]
  - name: "views"
    branch_type: "multi"
    inputs: ["base"]
    outputs: ["v0", "v1", "v2", "v3"]
    branches:
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 0
          y: 0
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 16
          y: 16
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 8
          y: 0
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 0
          y: 12
  - name: "join"
    branch_type: "merge"
    inputs: ["v0", "v1", "v2", "v3"]
    outputs: ["merged"]
`

// sparseYAML samples four frames eight apart and shrinks them to a
// 32x32 crop: little output per decoded GOP.
const sparseYAML = `
dataset:
  tag: "%s"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 1
    frames_per_video: 4
    frame_stride: 8
    samples_per_video: 1
  augmentation:
  - name: "augment_resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["small"]
    config:
    - resize:
        shape: [40, 40]
        interpolation: ["bilinear"]
  - name: "augment_crop"
    branch_type: "single"
    inputs: ["small"]
    outputs: ["out"]
    config:
    - random_crop:
        shape: [32, 32]
`
