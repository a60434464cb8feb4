package sim

// eventHeap is a binary min-heap of events ordered by (time, sequence): ties
// pop in insertion order, and which one fires is engine.pick's choice.
type eventHeap struct {
	events []*event
}

func (h *eventHeap) len() int { return len(h.events) }

func (h *eventHeap) peek() *event { return h.events[0] }

func (h *eventHeap) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	// Heap growth is amortized: capacity is retained across pops.
	h.events = append(h.events, ev)
	h.up(len(h.events) - 1)
}

func (h *eventHeap) pop() *event {
	top := h.events[0]
	last := len(h.events) - 1
	h.events[0] = h.events[last]
	h.events[last] = nil
	h.events = h.events[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.events)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.events[i], h.events[smallest] = h.events[smallest], h.events[i]
		i = smallest
	}
}
