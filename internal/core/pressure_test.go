package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"sand/internal/config"
	"sand/internal/dataset"
)

// sparseTaskYAML samples four frames eight apart and shrinks them to a
// 32x32 crop: little output per decoded 256x144 frame.
const sparseTaskYAML = `
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

// readEveryBatch reads every batch of three epochs for each task through
// a Loader — one goroutine per task when concurrent, as trainers read —
// and returns a content digest per batch.
func readEveryBatch(t *testing.T, s *Service, tags []string, concurrent bool) map[string][32]byte {
	t.Helper()
	var mu sync.Mutex
	out := map[string][32]byte{}
	errs := make([]error, len(tags))
	read := func(i int) {
		loader, err := s.NewLoader(tags[i])
		if err != nil {
			errs[i] = err
			return
		}
		for e := 0; e < 3; e++ {
			iters, err := s.ItersInEpoch(tags[i], e)
			if err != nil {
				errs[i] = err
				return
			}
			for it := 0; it < iters; it++ {
				b, meta, err := loader.Next(e, it)
				if err != nil {
					errs[i] = fmt.Errorf("%s epoch %d iter %d: %w", tags[i], e, it, err)
					return
				}
				h := sha256.New()
				fmt.Fprintf(h, "%v|%v|%s|", b.Labels, meta.Timestamps, meta.Geometry)
				for _, c := range b.Clips {
					for _, f := range c.Frames {
						fmt.Fprintf(h, "%d:%d:%dx%dx%d:", f.Index, f.PTS, f.W, f.H, f.C)
						h.Write(f.Pix)
					}
				}
				mu.Lock()
				out[fmt.Sprintf("%s/%d/%d", tags[i], e, it)] = [32]byte(h.Sum(nil))
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for i := range tags {
		if !concurrent {
			read(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			read(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTinyBudgetDemandBatchesSurvive: the decode-pressure shape — sparse
// samples of 16:9 clips shrunk to a 32x32 crop, two trainers reading at
// once — at a quarter of its geometry and budget: 128x72 frames under
// 72 KiB, the ratio of 256x144 frames to 288 KiB. One raw decoded frame
// is over a third of the budget, so the store evicts on almost every
// put, and a demand batch stored unpinned was the first deadline-0
// victim of its own put's eviction pass ("batch vanished after
// materialization"; this shape hit it on every run). Every batch must
// arrive, identical to a run whose budget never evicts.
func TestTinyBudgetDemandBatchesSurvive(t *testing.T) {
	ds, err := dataset.Kinetics400.Miniature(6, 128, 72, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"sparse-a", "sparse-b"}
	var tasks []*config.Task
	for _, tag := range tags {
		task, err := config.LoadTask(fmt.Sprintf(sparseTaskYAML, tag))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	engine := func(budget int64) *Service {
		s, err := New(Options{
			Tasks: tasks, Dataset: ds, ChunkEpochs: 2, TotalEpochs: 3,
			MemBudget: budget, Workers: 2, Coordinate: true, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	want := readEveryBatch(t, engine(1<<30), tags, false)
	s := engine(72 << 10)
	got := readEveryBatch(t, s, tags, true)
	if len(got) != len(want) {
		t.Fatalf("read %d batches, reference has %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("batch %s differs from the reference", k)
		}
	}
	st := s.StoreStats()
	if st.Evictions == 0 {
		t.Fatalf("a 288 KiB budget caused no evictions: %+v", st)
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after every batch was read", st.PinnedBytes)
	}
}
