package main

import (
	"encoding/json"
	"io"
	"time"

	"sand/internal/vfs"
)

// span is one timed call the benchmark made into the program.
type span struct {
	name       string
	tid        int
	start, dur time.Duration // start is relative to the trace origin
}

// spanLog collects the spans of one goroutine; it is not shared.
type spanLog struct {
	origin time.Time
	tid    int
	spans  []span
}

func (l *spanLog) record(name string, start time.Time) time.Duration {
	d := time.Since(start)
	l.spans = append(l.spans, span{name: name, tid: l.tid, start: start.Sub(l.origin), dur: d})
	return d
}

// spanMount wraps the Mount a Loader reads through and records a span
// for each of the calls Loader.Next makes: open, read, getxattr, close.
// mountTime accrues their durations so the caller can take a Next
// span's self time, which is DecodeBatch; nextSelf collects those.
type spanMount struct {
	vfs.Mount
	log       *spanLog
	mountTime time.Duration
	nextSelf  []time.Duration
}

func (m *spanMount) Open(path string) (int, error) {
	t := time.Now()
	fd, err := m.Mount.Open(path)
	m.mountTime += m.log.record("vfs.open", t)
	return fd, err
}

func (m *spanMount) ReadAll(fd int) ([]byte, error) {
	t := time.Now()
	data, err := m.Mount.ReadAll(fd)
	m.mountTime += m.log.record("vfs.read", t)
	return data, err
}

func (m *spanMount) Getxattr(fd int, name string) (string, error) {
	t := time.Now()
	v, err := m.Mount.Getxattr(fd, name)
	m.mountTime += m.log.record("vfs.getxattr", t)
	return v, err
}

func (m *spanMount) Close(fd int) error {
	t := time.Now()
	err := m.Mount.Close(fd)
	m.mountTime += m.log.record("vfs.close", t)
	return err
}

// writeChromeTrace writes spans as Chrome trace_event JSON ("X" events,
// microseconds), viewable in chrome://tracing or ui.perfetto.dev.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: "e2ebench", Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid,
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
