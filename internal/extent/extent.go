// Package extent is the sorted, non-overlapping extent index shared by
// the durable log store (internal/logstore) and the data server's
// fragment log (internal/pfsnet): the paper's mapping table, which
// resolves a read to the newest bytes for each offset and lets a newer
// write supersede the older bytes it overlaps.
//
// A Map holds one object's extents. Insert trims or splits whatever the
// new extent overlaps, Each visits the extents inside a range, and Punch
// removes a range. The value an extent carries is generic; its Trim
// method derives the value of a sub-range, so a trimmed extent keeps
// pointing at the right bytes (a log position, or a slice of a buffer).
package extent

import (
	"slices"
	"sort"
)

// Value is the payload of an extent. Trim returns the value describing
// the n bytes that start skip bytes into the extent.
type Value[V any] interface {
	Trim(skip, n int64) V
}

// Extent is one live byte range [Off, Off+N) of an object and the value
// holding its bytes.
type Extent[V any] struct {
	Off, N int64
	Val    V
}

// End returns the offset one past the extent's last byte.
func (e Extent[V]) End() int64 { return e.Off + e.N }

// clip returns the part of e inside [lo, hi), which must intersect e.
func clip[V Value[V]](e Extent[V], lo, hi int64) Extent[V] {
	lo, hi = max(e.Off, lo), min(e.End(), hi)
	return Extent[V]{Off: lo, N: hi - lo, Val: e.Val.Trim(lo-e.Off, hi-lo)}
}

// Map is the extent index of one object: extents sorted by offset, none
// overlapping, none empty. The zero Map is empty and ready to use. A Map
// is not safe for concurrent use.
type Map[V Value[V]] struct {
	ext []Extent[V]
}

// Len returns the number of extents.
func (m *Map[V]) Len() int { return len(m.ext) }

// Extents returns the extents in ascending order. Callers may replace
// values in place but must not change offsets or lengths.
func (m *Map[V]) Extents() []Extent[V] { return m.ext }

// Append adds e after every existing extent. It reports false, leaving
// the map unchanged, if e is empty, starts below zero, or would overlap
// or precede the last extent — the check a decoder of a persisted index
// needs.
func (m *Map[V]) Append(e Extent[V]) bool {
	var end int64
	if n := len(m.ext); n > 0 {
		end = m.ext[n-1].End()
	}
	if e.N <= 0 || e.Off < end {
		return false
	}
	m.ext = append(m.ext, e)
	return true
}

// span returns the index range [i, j) of the extents intersecting
// [off, end).
func (m *Map[V]) span(off, end int64) (i, j int) {
	i = sort.Search(len(m.ext), func(k int) bool { return m.ext[k].End() > off })
	j = i
	for j < len(m.ext) && m.ext[j].Off < end {
		j++
	}
	return i, j
}

// Insert makes v the contents of [off, off+n), trimming or splitting the
// extents it overlaps, and returns the number of previously live bytes
// it superseded. An empty range inserts nothing.
func (m *Map[V]) Insert(off, n int64, v V) (superseded int64) {
	if n <= 0 {
		return 0
	}
	end := off + n
	i, j := m.span(off, end)
	repl := make([]Extent[V], 0, 3)
	if i < j && m.ext[i].Off < off {
		// Only the first overlapped extent can stick out on the left.
		repl = append(repl, clip(m.ext[i], m.ext[i].Off, off))
	}
	repl = append(repl, Extent[V]{Off: off, N: n, Val: v})
	if i < j && m.ext[j-1].End() > end {
		// Only the last overlapped extent can stick out on the right.
		repl = append(repl, clip(m.ext[j-1], end, m.ext[j-1].End()))
	}
	for _, e := range m.ext[i:j] {
		superseded += min(e.End(), end) - max(e.Off, off)
	}
	m.ext = slices.Replace(m.ext, i, j, repl...)
	return superseded
}

// Each calls fn, in ascending order, for every extent intersecting
// [off, off+n), clipped to the intersection.
func (m *Map[V]) Each(off, n int64, fn func(Extent[V])) {
	end := off + n
	i, j := m.span(off, end)
	for _, e := range m.ext[i:j] {
		fn(clip(e, off, end))
	}
}

// Punch removes the parts of [off, off+n) held by extents whose value
// satisfies match, trimming extents that straddle the range edges, and
// returns the number of bytes removed.
func (m *Map[V]) Punch(off, n int64, match func(V) bool) (removed int64) {
	end := off + n
	i, j := m.span(off, end)
	if i == j {
		return 0
	}
	var repl []Extent[V]
	for _, e := range m.ext[i:j] {
		if !match(e.Val) {
			repl = append(repl, e)
			continue
		}
		if e.Off < off {
			repl = append(repl, clip(e, e.Off, off))
		}
		removed += min(e.End(), end) - max(e.Off, off)
		if e.End() > end {
			repl = append(repl, clip(e, end, e.End()))
		}
	}
	if removed > 0 {
		m.ext = slices.Replace(m.ext, i, j, repl...)
	}
	return removed
}
