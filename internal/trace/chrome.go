package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteChromeTrace exports the collector's spans as Chrome trace_event JSON
// (the format chrome://tracing and Perfetto load): one complete ("X") event
// per span, with the kernel as the pid and the operation root as the tid,
// so each distributed operation renders as one horizontal track and its
// kernel placement is the process grouping.
//
// The output is byte-deterministic for a fixed seed: spans are emitted in
// ID (allocation) order, every field is printed with fixed formatting (no
// map iteration, no floats with platform-dependent rendering), and the
// timestamps are the simulation's virtual nanoseconds scaled to the
// format's microseconds with three fixed decimals.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	spans := c.Spans()
	// Open spans (messages lost to faults, operations cut off by the end of
	// the run) clamp to the latest stamp in the trace so they render.
	var horizon int64
	for _, s := range spans {
		if int64(s.Begin) > horizon {
			horizon = int64(s.Begin)
		}
		if s.End >= s.Begin && int64(s.End) > horizon {
			horizon = int64(s.End)
		}
	}
	roots := rootOf(spans)
	for i, s := range spans {
		end := int64(s.End)
		name := s.Name
		if s.End < s.Begin {
			end = horizon
			name += " (open)"
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w,
			"{\"name\":%q,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d}}%s\n",
			name, microString(int64(s.Begin)), microString(end-int64(s.Begin)),
			s.Node, roots[s.ID], s.ID, s.Parent, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

// rootOf maps every span to the ID of the root of its operation tree, which
// becomes the Chrome tid so one operation is one track.
func rootOf(spans []Span) map[SpanID]SpanID {
	byID := make(map[SpanID]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := make(map[SpanID]SpanID, len(spans))
	var resolve func(id SpanID) SpanID
	resolve = func(id SpanID) SpanID {
		if r, ok := roots[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if parent, ok := byID[s.Parent]; ok && s.Parent != 0 && parent.ID != id {
			r = resolve(s.Parent)
		}
		roots[id] = r
		return r
	}
	for _, s := range spans {
		resolve(s.ID)
	}
	return roots
}

// microString renders ns as trace_event microseconds with exactly three
// decimals ("12.345"), avoiding float formatting entirely so output is
// byte-identical across platforms.
func microString(ns int64) string {
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	s := fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
	return s
}

// ValidateChromeTrace checks that an exported trace is well-formed JSON
// with the trace_event envelope. Tests use it as a smoke check that the
// hand-rolled output stays loadable.
func ValidateChromeTrace(data []byte) error {
	if !strings.HasPrefix(string(data), "{\"traceEvents\":[") {
		return fmt.Errorf("trace: missing traceEvents envelope")
	}
	if !json.Valid(data) {
		return fmt.Errorf("trace: exported trace is not valid JSON")
	}
	return nil
}
