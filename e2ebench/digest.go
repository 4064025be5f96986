package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"sand/internal/core"
	"sand/internal/frame"
	"sand/internal/obs"
)

// batchKey addresses one batch of one task.
type batchKey struct {
	task        string
	epoch, iter int
}

type digest [sha256.Size]byte

// batchDigest hashes a batch's decoded content — pixels, geometry,
// labels and timestamps — never its wire bytes, so a change of stored or
// serialized representation that keeps the content keeps the digest.
func batchDigest(b *frame.Batch, meta core.BatchMeta) digest {
	h := sha256.New()
	var num [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	putStrings := func(ss []string) {
		putInt(int64(len(ss)))
		for _, s := range ss {
			putInt(int64(len(s)))
			h.Write([]byte(s))
		}
	}
	putInt(int64(b.Epoch))
	putInt(int64(b.Iteration))
	putStrings(b.Labels)
	putStrings(meta.Labels)
	putStrings(meta.Timestamps)
	putStrings([]string{meta.Geometry})
	putInt(int64(len(b.Clips)))
	for _, c := range b.Clips {
		putInt(int64(len(c.Frames)))
		for _, f := range c.Frames {
			putInt(int64(f.W))
			putInt(int64(f.H))
			putInt(int64(f.C))
			putInt(f.PTS)
			h.Write(f.Pix)
		}
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// referenceBudget is the reference engine's MemBudget: far above what any
// workload materializes, so its store never evicts. A batch's content
// does not depend on the budget, only when it is made and how long it
// stays; a budget that cannot evict keeps the reference clear of
// eviction-timing failures that the timed runs must count instead.
const referenceBudget = 1 << 30

// reference holds the expected digest of every batch, from a
// single-node in-process engine with the workload's config and seed and
// a budget that cannot evict.
type reference struct {
	digests map[batchKey]digest
	// iters[task][epoch] is the iteration count of each epoch.
	iters map[string][]int
}

// buildReference reads every batch once, sequentially, from a fresh
// engine. It runs before the timed repetitions and warms the process
// up. Any error is fatal: without a reference nothing can be checked.
func buildReference(in *inputs) (*reference, error) {
	svc, err := in.newEngine(obs.New(), referenceBudget)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer svc.Close()
	ref := &reference{digests: map[batchKey]digest{}, iters: map[string][]int{}}
	for _, tag := range in.taskTags() {
		loader, err := core.NewRemoteLoader(svc.FS(), tag)
		if err != nil {
			return nil, err
		}
		for e := 0; e < in.w.epochs; e++ {
			n, err := svc.ItersInEpoch(tag, e)
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
			ref.iters[tag] = append(ref.iters[tag], n)
			for it := 0; it < n; it++ {
				b, meta, err := loader.Next(e, it)
				if err != nil {
					return nil, fmt.Errorf("reference batch %s/%d/%d: %w", tag, e, it, err)
				}
				ref.digests[batchKey{tag, e, it}] = batchDigest(b, meta)
			}
		}
	}
	return ref, nil
}

// batches is the number of batches one repetition reads.
func (r *reference) batches() int { return len(r.digests) }

// combined hashes every batch digest in key order: one value that pins
// the whole run's output, recorded in golden.json for the default seed.
func (r *reference) combined() string {
	keys := make([]batchKey, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.task != b.task {
			return a.task < b.task
		}
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		return a.iter < b.iter
	})
	h := sha256.New()
	for _, k := range keys {
		d := r.digests[k]
		fmt.Fprintf(h, "%s/%d/%d:", k.task, k.epoch, k.iter)
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
