package main

import (
	"fmt"
	"time"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/fleet"
	"sand/internal/obs"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

// inputs is what one invocation generates once from the seed, outside
// every timed region.
type inputs struct {
	w     *workload
	seed  int64
	ds    *dataset.Dataset
	tasks []*config.Task
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	ds, err := w.dataset(seed)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	tasks, err := w.tasks()
	if err != nil {
		return nil, fmt.Errorf("load tasks: %w", err)
	}
	return &inputs{w: w, seed: seed, ds: ds, tasks: tasks}, nil
}

func (in *inputs) taskTags() []string {
	tags := make([]string, len(in.tasks))
	for i, t := range in.tasks {
		tags[i] = t.Tag
	}
	return tags
}

// newEngine builds one engine of the workload with its own registry and
// the given MemBudget; core.New plans chunk 0 before it returns.
func (in *inputs) newEngine(reg *obs.Registry, memBudget int64) (*core.Service, error) {
	return core.New(core.Options{
		Tasks:       in.tasks,
		Dataset:     in.ds,
		ChunkEpochs: in.w.chunkEpochs,
		TotalEpochs: in.w.epochs,
		MemBudget:   memBudget,
		Workers:     in.w.workers,
		Coordinate:  true,
		Seed:        in.seed,
		Obs:         reg,
	})
}

// system is one engine or fleet, ready to serve trainers.
type system struct {
	// mount is what the trainers read through: the engine's filesystem,
	// or the fleet router.
	mount   vfs.Mount
	engines []*core.Service
	regs    []*obs.Registry // one per engine, same order

	registry  *fleet.Registry
	servers   []*viewserver.Server
	beats     []*fleet.Heartbeater
	router    *fleet.Router
	routerReg *obs.Registry
}

// buildSystem constructs the workload's engine or fleet and returns once
// it can serve: for the fleet, every node listens, has announced, and
// the router sees each one healthy.
func buildSystem(in *inputs) (*system, error) {
	sys := &system{}
	if in.w.fleetNodes == 0 {
		reg := obs.New()
		svc, err := in.newEngine(reg, in.w.memBudget)
		if err != nil {
			return nil, err
		}
		sys.engines, sys.regs = []*core.Service{svc}, []*obs.Registry{reg}
		sys.mount = svc.FS()
		return sys, nil
	}
	sys.registry = fleet.NewRegistry(fleet.RegistryOptions{})
	ann := fleet.LocalAnnouncer{R: sys.registry}
	for i := 0; i < in.w.fleetNodes; i++ {
		if err := sys.startNode(in, ann, fmt.Sprintf("node%d", i)); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.routerReg = obs.New()
	sys.router = fleet.NewRouter(ann, fleet.RouterOptions{
		Fingerprint: sys.engines[0].Fingerprint(),
		Obs:         sys.routerReg,
	})
	sys.mount = sys.router
	if err := sys.awaitHealthy(in.w.fleetNodes, 5*time.Second); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (sys *system) startNode(in *inputs, ann fleet.Announcer, name string) error {
	reg := obs.New()
	svc, err := in.newEngine(reg, in.w.memBudget)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	sys.engines = append(sys.engines, svc)
	sys.regs = append(sys.regs, reg)
	srv := viewserver.New(svc.FS(), viewserver.Options{ReadAhead: viewserver.DefaultReadAhead, Obs: reg})
	sys.servers = append(sys.servers, srv)
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("%s: listen: %w", name, err)
	}
	hb, err := fleet.StartHeartbeater(ann, fleet.NodeInfo{
		Name:        name,
		Addr:        addr.String(),
		Fingerprint: svc.Fingerprint(),
		Capacity:    1,
	})
	if err != nil {
		return fmt.Errorf("%s: announce: %w", name, err)
	}
	sys.beats = append(sys.beats, hb)
	return nil
}

// awaitHealthy polls until the registry reports n healthy nodes, then
// refreshes the router so it routes to all of them.
func (sys *system) awaitHealthy(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		healthy := 0
		for _, st := range sys.registry.Nodes() {
			if st.State == fleet.StateHealthy {
				healthy++
			}
		}
		if healthy == n {
			sys.router.Refresh()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d nodes healthy after %v", healthy, n, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the router, servers, heartbeats and engines down, in that
// order, and waits for each.
func (sys *system) close() {
	if sys.router != nil {
		_ = sys.router.Shutdown() // best effort: the run is over
	}
	for _, hb := range sys.beats {
		hb.Stop()
	}
	for _, srv := range sys.servers {
		_ = srv.Close() // best effort: the run is over
	}
	for _, svc := range sys.engines {
		svc.Close()
	}
	if sys.registry != nil {
		sys.registry.Close()
	}
}

// pinnedBytes sums the store bytes still pinned across engines.
func (sys *system) pinnedBytes() int64 {
	var n int64
	for _, svc := range sys.engines {
		n += svc.StoreStats().PinnedBytes
	}
	return n
}
