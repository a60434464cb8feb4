// Package stats provides the lightweight metrics used throughout the
// simulation: counters, latency histograms with power-of-two buckets, and
// the table/series formatters the benchmark harness prints.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// histBuckets is the number of power-of-two latency buckets: bucket i covers
// [2^i, 2^(i+1)) nanoseconds, bucket 0 covers [0, 2).
const histBuckets = 48

// Histogram accumulates durations into power-of-two buckets and tracks
// exact count, sum, min and max. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketOf(d)]++
}

func bucketOf(d time.Duration) int {
	n := uint64(d)
	b := 0
	for n > 1 && b < histBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average observation, or zero if empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation, or zero if empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) using the
// upper edge of the bucket containing the q-th observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			upper := time.Duration(uint64(1) << uint(i+1))
			if upper > h.max && h.max > 0 {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// Registry is a named collection of counters and histograms, used as the
// per-OS metrics set.
type Registry struct {
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterIn returns the counter cached in *slot, looking it up (and so
// registering it) under name on first use. A per-event path keeps the handle
// and skips the map lookup, while the set of registered names — and every
// dump — stays what a lookup by name each time would have made it.
func (r *Registry) CounterIn(slot **Counter, name string) *Counter {
	if *slot == nil {
		*slot = r.Counter(name)
	}
	return *slot
}

// HistogramIn is CounterIn for histograms.
func (r *Registry) HistogramIn(slot **Histogram, name string) *Histogram {
	if *slot == nil {
		*slot = r.Histogram(name)
	}
	return *slot
}

// Names returns all metric names in sorted order, counters then histograms.
func (r *Registry) Names() []string {
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
