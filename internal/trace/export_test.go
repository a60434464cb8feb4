package trace

import "time"

// Duration, for the tests, returns the span's extent; zero for a span never ended.
func (s Span) Duration() time.Duration {
	if s.End < s.Begin {
		return 0
	}
	return s.End.Sub(s.Begin)
}
