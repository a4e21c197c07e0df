// Package memmodel provides the primitive memory abstractions shared by the
// simulator: virtual addresses, cache-line arithmetic, and a synthetic heap
// allocator that stands in for the allocator of the traced program.
//
// The paper's workloads run on real hardware addresses produced by libc
// allocators; here every workload generator allocates its data structures
// from a memmodel.Heap so that linked structures receive realistically
// fragmented, non-contiguous layouts (the premise of Figure 1) while arrays
// remain contiguous.
package memmodel

import "fmt"

// Addr is a virtual byte address in the simulated address space.
type Addr uint64

// LineShift is log2 of the cache-line size used throughout the simulator.
// The paper's prefetcher operates on aligned blocks of cache-line
// granularity; CST deltas are stored in line units (§5, "1-byte delta of
// cache line granularity, able to point within a range of up to 8kB in each
// direction": 128 lines x 64 B = 8 kB).
const LineShift = 6

// LineSize is the cache-line size in bytes.
const LineSize = 1 << LineShift

// Line identifies an aligned cache line (Addr >> LineShift).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Base returns the first byte address of the line.
func (l Line) Base() Addr { return Addr(l) << LineShift }

// Delta returns the signed distance in lines from line o to line l.
func (l Line) Delta(o Line) int64 { return int64(l) - int64(o) }

// AddLines returns the line delta lines after l (delta may be negative).
func (l Line) AddLines(delta int64) Line { return Line(int64(l) + delta) }

// String implements fmt.Stringer for addresses (hex, like a memory map).
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// String implements fmt.Stringer for lines.
func (l Line) String() string { return fmt.Sprintf("line:0x%x", uint64(l)) }

// AlignUp rounds a up to a multiple of align (align must be a power of two).
func AlignUp(a Addr, align uint64) Addr {
	return (a + Addr(align-1)) &^ Addr(align-1)
}
