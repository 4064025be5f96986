package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"sand/internal/core"
	"sand/internal/vfs"
)

// repResult is what one repetition measured: a fresh engine or fleet,
// every batch of the workload's epochs, then shutdown.
type repResult struct {
	setup     time.Duration
	window    time.Duration // first Next start to last Next end
	cpu       time.Duration // process user+sys over the window
	peakHeap  uint64        // bytes
	latencies []time.Duration
	attempted int
	failed    int
	firstErr  error
}

// trainerStats is one trainer goroutine's record.
type trainerStats struct {
	first, last time.Time
	latencies   []time.Duration
	attempted   int
	failed      int
	firstErr    error
}

// train is one closed-loop trainer: it calls Next as soon as the
// previous batch is checked, for every iteration of every epoch. A
// failed batch — an error from Next or a digest that differs from the
// reference — is counted and the loop moves on.
func train(loader *core.Loader, tag string, ref *reference, sm *spanMount) *trainerStats {
	st := &trainerStats{}
	for e, n := range ref.iters[tag] {
		for it := 0; it < n; it++ {
			t := time.Now()
			if st.attempted == 0 {
				st.first = t
			}
			var mountBefore time.Duration
			if sm != nil {
				mountBefore = sm.mountTime
			}
			b, meta, err := loader.Next(e, it)
			d := time.Since(t)
			st.last = t.Add(d)
			st.latencies = append(st.latencies, d)
			st.attempted++
			if sm != nil {
				sm.log.spans = append(sm.log.spans, span{name: "loader.next", tid: sm.log.tid, start: t.Sub(sm.log.origin), dur: d})
				sm.nextSelf = append(sm.nextSelf, d-(sm.mountTime-mountBefore))
			}
			if err == nil && batchDigest(b, meta) != ref.digests[batchKey{tag, e, it}] {
				err = fmt.Errorf("batch %s/%d/%d: digest differs from the reference", tag, e, it)
			}
			if err != nil {
				st.failed++
				if st.firstErr == nil {
					st.firstErr = err
				}
			}
		}
	}
	return st
}

// tracing carries the traced run's extra instruments into a repetition.
type tracing struct {
	origin time.Time
	spans  []span
	layers *layerAcc
}

// runRep builds the system, runs one trainer per task to completion,
// and tears the system down. With tr set it wraps each trainer's mount
// in spans, samples store memory and gathers the layers' counters.
func runRep(in *inputs, ref *reference, tr *tracing) (*repResult, error) {
	runtime.GC() // start every repetition from the same heap state
	t0 := time.Now()
	sys, err := buildSystem(in)
	if err != nil {
		return nil, err
	}
	res := &repResult{setup: time.Since(t0)}
	defer sys.close() // on early returns; closing twice is harmless
	if tr != nil {
		tr.spans = append(tr.spans, span{name: "setup", start: t0.Sub(tr.origin), dur: res.setup})
	}

	tags := in.taskTags()
	loaders := make([]*core.Loader, len(tags))
	mounts := make([]*spanMount, len(tags))
	for i, tag := range tags {
		var m vfs.Mount = sys.mount
		if tr != nil {
			mounts[i] = &spanMount{Mount: sys.mount, log: &spanLog{origin: tr.origin, tid: i + 1}}
			m = mounts[i]
		}
		// NewRemoteLoader over the engine's own FS is what NewLoader
		// returns; taking the mount explicitly lets the fleet and the
		// traced run swap theirs in.
		if loaders[i], err = core.NewRemoteLoader(m, tag); err != nil {
			return nil, err
		}
	}

	stopSampler := startSampler(sys, tr != nil)
	cpu0 := cpuTime()
	stats := make([]*trainerStats, len(tags))
	var wg sync.WaitGroup
	for i, tag := range tags {
		wg.Add(1)
		go func(i int, tag string) {
			defer wg.Done()
			stats[i] = train(loaders[i], tag, ref, mounts[i])
		}(i, tag)
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	peaks := stopSampler()
	res.peakHeap = peaks.heap

	var first, last time.Time
	for _, st := range stats {
		if first.IsZero() || st.first.Before(first) {
			first = st.first
		}
		if st.last.After(last) {
			last = st.last
		}
		res.latencies = append(res.latencies, st.latencies...)
		res.attempted += st.attempted
		res.failed += st.failed
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
	}
	res.window = last.Sub(first)

	if tr != nil {
		for _, m := range mounts {
			tr.spans = append(tr.spans, m.log.spans...)
			tr.layers.nextSelf = append(tr.layers.nextSelf, m.nextSelf...)
		}
		tr.layers.gather(sys, res.attempted-res.failed)
		tr.layers.storeMemPeak = max(tr.layers.storeMemPeak, peaks.storeMem)
	}
	sys.close()
	if tr != nil {
		tr.layers.pinnedEnd = max(tr.layers.pinnedEnd, sys.pinnedBytes())
	}
	return res, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peaks are the maxima the sampler saw.
type peaks struct {
	heap     uint64 // Go heap objects, bytes
	storeMem int64  // object store memory tier over all engines, bytes
}

// startSampler polls the Go heap (and, when traced, the stores' memory
// tier) every 2ms until the returned stop function is called; stop
// waits for the sampler goroutine and returns the peaks.
func startSampler(sys *system, withStore bool) func() peaks {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var p peaks
	poll := func() {
		metrics.Read(sample)
		p.heap = max(p.heap, sample[0].Value.Uint64())
		if withStore {
			var mem int64
			for _, svc := range sys.engines {
				mem += svc.StoreStats().MemBytes
			}
			p.storeMem = max(p.storeMem, mem)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			poll()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() peaks {
		close(stop)
		<-done
		poll()
		return p
	}
}

// percentile returns the nearest-rank q-quantile of ds (sorted in place).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}
