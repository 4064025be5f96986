// Command e2ebench is SAND's end-to-end trainer benchmark. Closed-loop
// trainers, one goroutine per task, read every batch of a fixed number
// of epochs through core.Loader from a freshly built engine or fleet,
// check each batch against a reference, and report how long they
// waited. See NOTES.md for the workloads and the metrics. From the root
// of the repository:
//
//	bash e2ebench/run.sh --workload local-multitask --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones from untraced repetitions; with --trace 1 they are
// the per-layer ones from a separate traced repetition set.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed golden.json records digests for.
const defaultSeed = 1

// maxRunTime bounds one invocation: no repetition starts that would
// likely end past it.
const maxRunTime = 150 * time.Second

// minReps is the fewest timed repetitions a run reports a median of.
const minReps = 3

// setupOnly is how many set-ups an invocation times beside the one each
// repetition makes, so setup_s is a median of many.
const setupOnly = 20

// minBatches is the fewest batches a repetition must deliver: with 100,
// ten latencies lie beyond p90.
var minBatches = 100

//go:embed golden.json
var goldenJSON []byte

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"epoch_s", "s"},
	{"batch_ms_p50", "ms"},
	{"batch_ms_p90", "ms"},
	{"cpu_s_per_epoch", "s"},
	{"peak_heap_mb", "MiB"},
}

var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{
		{"vfs.open_ms_p50", "ms"}, {"vfs.open_ms_p90", "ms"},
		{"vfs.read_ms_p50", "ms"}, {"vfs.getxattr_ms_p50", "ms"},
		{"core.decode_batch_ms_p50", "ms"},
		{"core.view_read_ms_p50", "ms"}, {"core.view_read_ms_p90", "ms"},
		{"core.premat_hit_ratio", "ratio"}, {"core.demand_misses", "count"},
		{"core.gop_hit_ratio", "ratio"}, {"core.gop_frames_decoded", "count"},
		{"core.gop_evictions", "count"},
		{"core.reuse.superset_hits", "count"}, {"core.reuse.xsample_hits", "count"},
		{"sched.queue_wait_ms_p90", "ms"}, {"sched.demand_wait_ms_p90", "ms"},
		{"sched.task_run_ms_p50", "ms"},
		{"sched.demand_runs", "count"}, {"sched.premat_runs", "count"},
		{"sched.sjf_decisions", "count"}, {"sched.errors", "count"},
		{"storage.hit_ratio", "ratio"}, {"storage.evictions", "count"},
		{"storage.mem_bytes_peak", "bytes"}, {"storage.pinned_bytes_end", "bytes"},
		{"viewserver.request_ms_p50", "ms"}, {"viewserver.request_ms_p90", "ms"},
		{"viewserver.wire_bytes_per_batch", "bytes"},
		{"viewserver.readahead_hit_ratio", "ratio"}, {"viewserver.zerocopy_ratio", "ratio"},
		{"fleet.materialize_per_batch", "ratio"}, {"fleet.open_skew", "ratio"},
		{"fleet.router.failovers", "count"},
		{"graph.plan_ms", "ms"}, {"graph.decode_ops", "count"}, {"graph.aug_ops", "count"},
	}
	for _, m := range cpuModules {
		specs = append(specs, metricSpec{"cpu." + m + "_frac", "ratio"})
	}
	return append(specs, metricSpec{"trace.overhead_frac", "ratio"}, metricSpec{"fail_frac", "ratio"})
}()

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: local-multitask, fleet-overlap or decode-pressure")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the generated dataset and of the engine's planning")
	fs.IntVar(&o.seconds, "seconds", 25, "how long the repetitions run, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for the report, CPU profile and Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	o.trace = trace == 1
	res, err := bench(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// hostRecord identifies where and on what a report was measured.
type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newHostRecord(o options) hostRecord {
	return hostRecord{
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit is the source revision: the build's VCS stamp, else git, else
// "unknown" (an exported checkout has neither).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// report is the file written beside each run: the host record, the
// end-to-end metrics with their quartiles over the repetitions, and in
// a traced run the per-layer metrics.
type report struct {
	Host     hostRecord            `json:"host"`
	Reps     int                   `json:"reps"`
	Batches  int                   `json:"batches_per_rep"`
	Digest   string                `json:"reference_digest"`
	Errors   []string              `json:"errors,omitempty"`
	EndToEnd map[string]reportStat `json:"end_to_end"`
	PerLayer map[string]float64    `json:"per_layer,omitempty"`
}

// reportStat is one end-to-end metric: the reported value, and the
// median and quartiles of its per-repetition values.
type reportStat struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func bench(o options, stdout, stderr io.Writer) (*result, error) {
	start := time.Now()
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	host := newHostRecord(o)
	in, err := newInputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(in)
	if err != nil {
		return nil, err
	}
	if ref.batches() < minBatches {
		return nil, fmt.Errorf("workload %s delivers %d batches per repetition; p90 needs at least %d", w.name, ref.batches(), minBatches)
	}
	goldenOK, err := checkGolden(o.workload, o.seed, ref.combined(), stderr)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, boolInt(o.trace)))

	// A traced invocation spends half its time untraced, which gives the
	// baseline for the tracing overhead, and half traced.
	phase := time.Duration(o.seconds) * time.Second
	if o.trace {
		phase /= 2
	}
	setups, err := timeSetups(in, setupOnly)
	if err != nil {
		return nil, err
	}
	reps, err := repeat(in, ref, nil, time.Now().Add(phase), start)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(reps, w.epochs)
	e2e["setup_s"] = append(setups, e2e["setup_s"]...)
	rpt := report{Host: host, Reps: len(reps), Batches: ref.batches(), Digest: ref.combined(), EndToEnd: map[string]reportStat{}}
	for _, s := range endToEndSpecs {
		rpt.EndToEnd[s.name] = newReportStat(s.unit, e2e[s.name])
	}
	// The latency percentiles are taken over every batch of the run, not
	// per repetition: a repetition's p50 swings with its premat hit ratio
	// (hits take microseconds, misses milliseconds), the pooled one does
	// not.
	var lat []time.Duration
	for _, r := range reps {
		lat = append(lat, r.latencies...)
	}
	for name, q := range map[string]float64{"batch_ms_p50": 0.5, "batch_ms_p90": 0.9} {
		st := rpt.EndToEnd[name]
		st.Value = msOf(percentile(lat, q))
		rpt.EndToEnd[name] = st
	}
	all := reps
	var layer map[string]float64
	if o.trace {
		traced, m, err := tracedRun(in, ref, base, time.Now().Add(phase), start)
		if err != nil {
			return nil, err
		}
		all = append(all, traced...)
		layer = m
		layer["trace.overhead_frac"] = median(endToEnd(traced, w.epochs)["epoch_s"])/rpt.EndToEnd["epoch_s"].Median - 1
	}

	res := &result{Metrics: map[string]value{}}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.firstErr != nil {
			rpt.Errors = append(rpt.Errors, r.firstErr.Error())
		}
	}
	res.Correct = goldenOK && res.Failed == 0
	if o.trace {
		layer["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
		rpt.PerLayer = layer
		for _, s := range perLayerSpecs {
			res.Metrics[s.name] = value{layer[s.name], s.unit}
		}
	} else {
		for _, s := range endToEndSpecs {
			res.Metrics[s.name] = value{rpt.EndToEnd[s.name].Value, s.unit}
		}
	}
	for _, e := range rpt.Errors {
		fmt.Fprintf(stderr, "e2ebench: failed batch: %s\n", e)
	}
	if err := writeJSON(base+".json", rpt); err != nil {
		return nil, err
	}
	hostLine, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	return res, nil
}

// tracedRun is the separate traced repetition set: spans around every
// call into the program, the registries' counters, and a CPU profile
// attributed by module. It writes the profile and a Chrome trace of the
// spans beside the report.
func tracedRun(in *inputs, ref *reference, base string, until, start time.Time) ([]*repResult, map[string]float64, error) {
	tr := &tracing{origin: time.Now(), layers: newLayerAcc()}
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, err
	}
	reps, err := repeat(in, ref, tr, until, start)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	m := tr.layers.metrics(tr.spans, in.w.fleetNodes > 0)
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, nil, err
	}
	g, err := graphMetrics(in)
	if err != nil {
		return nil, nil, err
	}
	for _, extra := range []map[string]float64{shares, g} {
		for k, v := range extra {
			m[k] = v
		}
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return nil, nil, err
	}
	if err := writeChromeTrace(f, tr.spans); err != nil {
		f.Close()
		return nil, nil, err
	}
	return reps, m, f.Close()
}

// repeat runs repetitions until the deadline, and at least minReps of
// them unless that would carry the invocation past maxRunTime.
func repeat(in *inputs, ref *reference, tr *tracing, until, start time.Time) ([]*repResult, error) {
	var reps []*repResult
	for {
		if n := len(reps); n > 0 {
			last := reps[n-1].setup + reps[n-1].window
			if n >= minReps && !time.Now().Before(until) || time.Since(start)+2*last > maxRunTime {
				return reps, nil
			}
		}
		r, err := runRep(in, ref, tr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
}

// timeSetups builds and closes the system n times, from the same heap
// state as a repetition, and returns each set-up time in seconds.
func timeSetups(in *inputs, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		sys, err := buildSystem(in)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
		sys.close()
	}
	return out, nil
}

// endToEnd turns each repetition into one value per end-to-end metric.
func endToEnd(reps []*repResult, epochs int) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		add := func(name string, v float64) { out[name] = append(out[name], v) }
		add("setup_s", r.setup.Seconds())
		add("epoch_s", r.window.Seconds()/float64(epochs))
		add("batch_ms_p50", msOf(percentile(r.latencies, 0.5)))
		add("batch_ms_p90", msOf(percentile(r.latencies, 0.9)))
		add("cpu_s_per_epoch", r.cpu.Seconds()/float64(epochs))
		add("peak_heap_mb", float64(r.peakHeap)/(1<<20))
	}
	return out
}

func newReportStat(unit string, vs []float64) reportStat {
	q1, q3 := quartiles(vs)
	m := median(vs)
	return reportStat{Unit: unit, Value: m, Median: m, Q1: q1, Q3: q3, Values: vs}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(n=4).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkGolden compares the reference digest with golden.json when the
// seed is the default one. golden.json is edited by hand: its value for a
// workload is the reference_digest of that workload's seed-1 report.
func checkGolden(workload string, seed int64, got string, stderr io.Writer) (bool, error) {
	if seed != defaultSeed {
		return true, nil
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return false, fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[workload]
	if !ok {
		return false, errors.New("golden.json has no digest for " + workload)
	}
	if want != got {
		fmt.Fprintf(stderr, "e2ebench: reference digest %s differs from golden %s\n", got, want)
		return false, nil
	}
	return true, nil
}
