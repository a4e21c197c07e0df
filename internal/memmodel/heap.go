package memmodel

import (
	"fmt"
)

// Heap is a deterministic synthetic allocator used by workload generators.
//
// It substitutes for the libc allocator of the paper's traced binaries. Two
// properties matter for prefetcher studies and are both modelled:
//
//   - Arrays allocated in one call are contiguous, so spatial prefetchers
//     see them exactly as on real hardware.
//   - Individually allocated nodes (lists, trees, graph vertices) are
//     scattered: the heap inserts configurable padding and, with
//     Fragmentation > 0, pseudo-randomly jumps between arenas, reproducing
//     the fragmented layouts of long-running programs (Figure 1's top plot).
//
// The heap is purely an address generator: no data is stored. Determinism is
// guaranteed for a fixed Seed so every experiment is reproducible.
type Heap struct {
	cfg       HeapConfig
	arenas    []arena
	rng       splitMix64
	current   int
	largeNext Addr // bump pointer of the large-object region (0 = unset)
	// allocated tracks total bytes handed out, for accounting/tests.
	allocated uint64
}

// HeapConfig parameterizes a Heap.
type HeapConfig struct {
	// Base is the first address of the heap. Defaults to 0x10000000.
	Base Addr
	// ArenaSize is the size of each allocation arena. Defaults to 1 MiB.
	ArenaSize uint64
	// Arenas is the number of arenas. Defaults to 64.
	Arenas int
	// Fragmentation in [0,1] is the probability that an allocation jumps to
	// a pseudo-random arena instead of continuing in the current one. 0
	// produces bump allocation (perfectly spatial); values near 1 scatter
	// every node.
	Fragmentation float64
	// Align is the minimum alignment of returned addresses. Defaults to 16
	// (glibc malloc alignment).
	Align uint64
	// Seed makes the scatter pattern deterministic.
	Seed uint64
}

type arena struct {
	base Addr
	next Addr
	end  Addr
}

// DefaultHeapConfig returns the configuration used by the standard
// workloads: moderately fragmented, matching a program that has run long
// enough for its free lists to interleave allocations.
func DefaultHeapConfig() HeapConfig {
	return HeapConfig{
		Base:          0x10000000,
		ArenaSize:     1 << 20,
		Arenas:        64,
		Fragmentation: 0.5,
		Align:         16,
		Seed:          1,
	}
}

// NewHeap creates a heap. Zero-valued config fields take defaults.
func NewHeap(cfg HeapConfig) *Heap {
	def := DefaultHeapConfig()
	if cfg.Base == 0 {
		cfg.Base = def.Base
	}
	if cfg.ArenaSize == 0 {
		cfg.ArenaSize = def.ArenaSize
	}
	if cfg.Arenas == 0 {
		cfg.Arenas = def.Arenas
	}
	if cfg.Align == 0 {
		cfg.Align = def.Align
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	h := &Heap{cfg: cfg, rng: splitMix64(cfg.Seed)}
	h.arenas = make([]arena, cfg.Arenas)
	for i := range h.arenas {
		base := cfg.Base + Addr(uint64(i)*cfg.ArenaSize)
		h.arenas[i] = arena{base: base, next: base, end: base + Addr(cfg.ArenaSize)}
	}
	return h
}

// HeapExhaustedError reports an allocation request the heap could not
// satisfy, which indicates a misconfigured workload (footprint larger than
// Arenas*ArenaSize).
type HeapExhaustedError struct {
	// Size is the allocation request that failed.
	Size uint64
	// Allocated is the total number of bytes handed out before the failure.
	Allocated uint64
}

// Error implements error.
func (e *HeapExhaustedError) Error() string {
	return fmt.Sprintf("memmodel: heap exhausted allocating %d bytes (allocated %d)", e.Size, e.Allocated)
}

// Alloc returns the base address of a fresh object of the given size. It
// never returns overlapping ranges. It panics with a *HeapExhaustedError
// only if the heap is truly exhausted; generator code that prefers an
// error return should call TryAlloc instead, and the simulation harness
// recovers the panic into the same typed error.
func (h *Heap) Alloc(size uint64) Addr {
	p, err := h.TryAlloc(size)
	if err != nil {
		panic(err)
	}
	return p
}

// TryAlloc is Alloc with an error return instead of a panic.
func (h *Heap) TryAlloc(size uint64) (Addr, error) {
	if size == 0 {
		size = 1
	}
	if size > h.cfg.ArenaSize {
		// Large object: served from a dedicated mmap-like region above the
		// arenas (as real allocators do for allocations beyond the arena
		// class sizes).
		if h.largeNext == 0 {
			h.largeNext = h.cfg.Base + Addr(uint64(len(h.arenas))*h.cfg.ArenaSize)
		}
		p := AlignUp(h.largeNext, h.cfg.Align)
		h.largeNext = p + Addr(size)
		h.allocated += size
		return p, nil
	}
	if h.cfg.Fragmentation > 0 && h.rng.float64() < h.cfg.Fragmentation {
		h.current = int(h.rng.next() % uint64(len(h.arenas)))
	}
	for tries := 0; tries < len(h.arenas); tries++ {
		a := &h.arenas[h.current]
		p := AlignUp(a.next, h.cfg.Align)
		if p+Addr(size) <= a.end {
			a.next = p + Addr(size)
			h.allocated += size
			return p, nil
		}
		h.current = (h.current + 1) % len(h.arenas)
	}
	return 0, &HeapExhaustedError{Size: size, Allocated: h.allocated}
}

// AllocArray allocates count contiguous elements of elemSize bytes and
// returns the base address. The whole array always lands in one arena so it
// is spatially contiguous regardless of Fragmentation.
func (h *Heap) AllocArray(count int, elemSize uint64) Addr {
	return h.Alloc(uint64(count) * elemSize)
}

// Allocated reports the total bytes handed out so far.
func (h *Heap) Allocated() uint64 { return h.allocated }

// splitMix64 is a tiny deterministic PRNG (SplitMix64). The simulator avoids
// math/rand so that streams are stable across Go releases.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// RNG is a deterministic pseudo-random source shared by workload generators.
// It exposes the minimal operations the generators need.
type RNG struct{ s splitMix64 }

// NewRNG returns a deterministic generator seeded with seed (seed 0 is
// remapped to 1 so the zero value is still usable).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{s: splitMix64(seed)}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 { return r.s.next() }

// Intn returns a value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("memmodel: Intn with non-positive n")
	}
	return int(r.s.next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 { return r.s.float64() }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)),
// making the same draws as Perm(len(p)).
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
