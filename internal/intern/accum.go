package intern

import "hybridrel/internal/asrel"

// CountsAccum accumulates link occurrence counts into an open-addressed
// table keyed by the packed canonical link key — the ingest-side
// counterpart of the frozen Counts. Where BuildCounts materializes and
// sorts one entry per occurrence, the accumulator pays a hash probe per
// occurrence and holds one slot per *distinct* link, so steady-state
// accumulation allocates nothing and Freeze sorts only the distinct
// keys. The zero value is ready to use.
type CountsAccum struct {
	keys   []uint64
	counts []int32
	n      int
}

// accumMinSize is the initial table size; must be a power of two.
const accumMinSize = 64

// HashPacked scrambles a packed link key into a table slot seed
// (splitmix64 finalizer — packed keys are highly structured, low bits
// alone would cluster). CountsAccum and infer.VoteTable both probe from
// it.
func HashPacked(u uint64) uint64 {
	u ^= u >> 30
	u *= 0xbf58476d1ce4e5b9
	u ^= u >> 27
	u *= 0x94d049bb133111eb
	u ^= u >> 31
	return u
}

// Add increments the count of k by delta. Empty slots are marked by a
// zero count — a stored link always has count ≥ 1, so no sentinel key
// is needed and the all-zero link {0,0} remains representable.
//
//hybridrel:hotpath
func (c *CountsAccum) Add(k asrel.LinkKey, delta int32) {
	if delta <= 0 {
		return
	}
	if (c.n+1)*4 > len(c.keys)*3 {
		c.grow()
	}
	mask := uint64(len(c.keys) - 1)
	u := Pack(k)
	i := HashPacked(u) & mask
	for {
		if c.counts[i] == 0 {
			c.keys[i] = u
			c.counts[i] = delta
			c.n++
			return
		}
		if c.keys[i] == u {
			c.counts[i] += delta
			return
		}
		i = (i + 1) & mask
	}
}

// Len returns the number of distinct links accumulated.
func (c *CountsAccum) Len() int { return c.n }

// Reset empties the accumulator while keeping its table capacity, so a
// fold-accumulate cycle (the live ingest cadence) allocates only while
// the distinct-link working set is still growing.
func (c *CountsAccum) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.n = 0
}

// grow doubles the table (or seeds it) and reinserts every occupied slot.
//
//hybridrel:hotpath
func (c *CountsAccum) grow() {
	size := accumMinSize
	if len(c.keys) > 0 {
		size = len(c.keys) * 2
	}
	keys := make([]uint64, size)
	counts := make([]int32, size)
	mask := uint64(size - 1)
	for i, n := range c.counts {
		if n == 0 {
			continue
		}
		j := HashPacked(c.keys[i]) & mask
		for counts[j] != 0 {
			j = (j + 1) & mask
		}
		keys[j], counts[j] = c.keys[i], n
	}
	c.keys, c.counts = keys, counts
}

// Freeze extracts the accumulated multiset as a frozen sorted Counts.
// The accumulator remains usable (and keeps its contents); the caller
// resets or discards it as needed.
func (c *CountsAccum) Freeze() *Counts {
	out := &Counts{
		keys:   make([]uint64, 0, c.n),
		counts: make([]int32, 0, c.n),
	}
	for i, n := range c.counts {
		if n != 0 {
			out.keys = append(out.keys, c.keys[i])
		}
	}
	sortPacked(out.keys)
	out.counts = out.counts[:len(out.keys)]
	for i, u := range out.keys {
		j := HashPacked(u) & uint64(len(c.keys)-1)
		for c.keys[j] != u || c.counts[j] == 0 {
			j = (j + 1) & uint64(len(c.keys)-1)
		}
		out.counts[i] = c.counts[j]
	}
	return out
}

// SubCounts subtracts b from a with one two-pointer sweep, dropping
// links whose count reaches zero. It is the merge-path correction for
// double-counted occurrences: a path present in two shards contributed
// its links to both shards' indexes, and the duplicate contribution is
// subtracted after MergeCounts sums them.
func SubCounts(a, b *Counts) *Counts {
	if b == nil || len(b.keys) == 0 {
		return a
	}
	out := &Counts{
		keys:   make([]uint64, 0, len(a.keys)),
		counts: make([]int32, 0, len(a.keys)),
	}
	j := 0
	for i, u := range a.keys {
		n := a.counts[i]
		for j < len(b.keys) && b.keys[j] < u {
			j++
		}
		if j < len(b.keys) && b.keys[j] == u {
			n -= b.counts[j]
			j++
		}
		if n > 0 {
			out.keys = append(out.keys, u)
			out.counts = append(out.counts, n)
		}
	}
	return out
}
