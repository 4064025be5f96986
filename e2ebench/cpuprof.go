package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the modules CPU time is attributed to, as reported in
// cpu.<module>_frac. "other" holds the sand/internal modules not listed
// (vfs, obs, metrics, dataset, config, ...) and the benchmark's own
// code; "runtime" holds samples with no sand frame at all.
var cpuModules = []string{
	"codec", "augment", "frame", "storage", "core", "sched",
	"graph", "viewserver", "fleet", "runtime", "other",
}

// moduleOf attributes one stack, innermost frame first, to the
// innermost sand/internal/<module> frame on it.
func moduleOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "sand/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "other"
	}
	return "runtime"
}

// attributeTraces parses `go tool pprof -traces` text output and returns
// each module's share of the sampled CPU time. Each trace block starts
// with the sample value and the innermost function on one line; the
// callers follow one per line; dashed lines separate blocks.
func attributeTraces(r io.Reader) (map[string]float64, error) {
	byModule := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byModule[moduleOf(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks, head := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks, head = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if head {
			// "      10ms   pkg.fn": the sample value and innermost frame.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad trace head %q", line)
			}
			value, head = d, false
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out["cpu."+m+"_frac"] = float64(byModule[m]) / float64(total)
	}
	return out, nil
}

// cpuShares runs the toolchain's pprof on a CPU profile and attributes
// its samples by module.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return attributeTraces(strings.NewReader(string(out)))
}
