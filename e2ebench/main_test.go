package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/gpusim"
	"sand/internal/trainsim"
	"sand/internal/vfs"
)

// tinyWorkloads registers test-sized local and fleet workloads, small
// enough that a whole traced invocation takes a few seconds.
func tinyWorkloads(t *testing.T) {
	t.Helper()
	tasks := func() ([]*config.Task, error) {
		a := trainsim.WorkloadTaskForTests(gpusim.MAE, "mae", 1)
		b := trainsim.WorkloadTaskForTests(gpusim.MAE, "mae2", 1)
		a.Sampling.FramesPerVideo, b.Sampling.FramesPerVideo = 4, 2
		return []*config.Task{a, b}, nil
	}
	saved, savedMin := workloads, minBatches
	t.Cleanup(func() { workloads, minBatches = saved, savedMin })
	minBatches = 8
	workloads = append(workloads[:len(workloads):len(workloads)],
		&workload{name: "tiny-local", videos: 3, w: 96, h: 72, frames: 40, tasks: tasks,
			workers: 2, memBudget: 64 << 20, chunkEpochs: 1, epochs: 2},
		&workload{name: "tiny-fleet", videos: 3, w: 96, h: 72, frames: 40, tasks: tasks,
			fleetNodes: 2, workers: 1, memBudget: 64 << 20, chunkEpochs: 1, epochs: 2},
	)
}

// benchmarkSpec is the part of BENCHMARK.json the test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runLast runs the benchmark in process and decodes its last line.
func runLast(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--seed", "3", "--seconds", "1", "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "host {") {
		t.Errorf("no host record before the result: %q", lines[0])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	tinyWorkloads(t)
	spec := loadSpec(t)
	for _, tc := range []struct {
		args []string
		want []struct{ Name, Unit string }
	}{
		{[]string{"--workload", "tiny-local", "--trace", "0"}, spec.EndToEnd},
		{[]string{"--workload", "tiny-fleet", "--trace", "0"}, spec.EndToEnd},
		{[]string{"--workload", "tiny-fleet", "--trace", "1"}, spec.PerLayer},
	} {
		res := runLast(t, tc.args...)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d", tc.args, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("%v: %d metrics printed, BENCHMARK.json names %d", tc.args, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%v: metric %s = %+v, want unit %q", tc.args, m.Name, got, m.Unit)
			}
		}
		if v := res.Metrics["viewserver.wire_bytes_per_batch"]; tc.args[3] == "1" && v.Value <= 0 {
			t.Errorf("fleet run reports no wire bytes: %+v", v)
		}
	}
}

// flipMount flips one byte in the middle of one view's payload.
type flipMount struct {
	vfs.Mount
	path string
	fds  map[int]bool
}

func (m *flipMount) Open(path string) (int, error) {
	fd, err := m.Mount.Open(path)
	if err == nil && path == m.path {
		m.fds[fd] = true
	}
	return fd, err
}

func (m *flipMount) ReadAll(fd int) ([]byte, error) {
	data, err := m.Mount.ReadAll(fd)
	if err == nil && m.fds[fd] {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}
	return data, err
}

func TestFlippedByteIsAFailedBatch(t *testing.T) {
	tinyWorkloads(t)
	w, err := workloadByName("tiny-local")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(in)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	m := &flipMount{Mount: sys.mount, path: vfs.BatchPath("mae", 1, 0), fds: map[int]bool{}}
	loader, err := core.NewRemoteLoader(m, "mae")
	if err != nil {
		t.Fatal(err)
	}
	st := train(loader, "mae", ref, nil)
	if st.attempted != 2*w.videos || st.failed != 1 || st.firstErr == nil {
		t.Fatalf("attempted=%d failed=%d err=%v; want %d attempted, exactly the flipped batch failed",
			st.attempted, st.failed, st.firstErr, 2*w.videos)
	}
}

func TestModuleAttribution(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"compress/flate.(*compressor).deflate", "compress/flate.(*Writer).Write", "sand/internal/frame.encodeFrame", "sand/internal/core.(*Service).storeFrame"}, "frame"},
		{[]string{"sand/internal/codec.(*Decoder).decodeOne", "sand/internal/core.(*gopCache).build"}, "codec"},
		{[]string{"runtime.memmove", "sand/internal/vfs.(*FS).ReadAll", "sand/internal/core.(*Loader).Next"}, "other"},
		{[]string{"crypto/sha256.block", "main.batchDigest", "main.train"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}

	const traces = `File: e2ebench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
      30ms   compress/flate.(*compressor).deflate
             sand/internal/frame.encodeFrame (inline)
             sand/internal/core.(*Service).storeFrame
-----------+-------------------------------------------------------
      10ms   runtime.bgsweep
-----------+-------------------------------------------------------
`
	shares, err := attributeTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	if shares["cpu.frame_frac"] != 0.75 || shares["cpu.runtime_frac"] != 0.25 || shares["cpu.codec_frac"] != 0 {
		t.Errorf("shares = %v, want frame 0.75, runtime 0.25", shares)
	}
}
