package sim

// RNG is the engine's deterministic random source: a splitmix64 stream
// derived from a single seed. It replaces math/rand so that every random
// choice the simulator makes (tie-breaking, placement jitter, workload
// shuffles) is reproducible from the engine seed alone, with no dependency
// on math/rand's generator changing between Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Equal seeds yield equal
// streams.
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// next returns the next value of the splitmix64 stream.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Int63n returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: RNG.Int63n with non-positive n")
	}
	return int64(r.next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
