package core

import (
	"sort"

	"repro/internal/sim"
)

// entry is one cached disk extent: a contiguous sector range of the disk
// mirrored at a location in the SSD cache region.
type entry struct {
	lbn     int64 // first disk sector
	sectors int64
	ssdLBN  int64 // first sector in the SSD cache region
	dirty   bool
	class   Class
	ret     float64 // recorded return value at admission
	// spanAt/spanN record the allocator span this entry owns (the data
	// plus any journalled table record); split remnants own no span —
	// the original left-hand entry keeps it until fully dropped.
	spanAt, spanN int64
	// LRU links (nil-terminated, per class).
	prev, next *entry
}

func (e *entry) end() int64 { return e.lbn + e.sectors }

// lruList is an intrusive doubly-linked LRU list; head is least recently
// used, tail most recently used.
type lruList struct {
	head, tail *entry
	count      int
}

func (l *lruList) pushMRU(e *entry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	}
	l.tail = e
	if l.head == nil {
		l.head = e
	}
	l.count++
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.count--
}

func (l *lruList) touch(e *entry) {
	l.remove(e)
	l.pushMRU(e)
}

// span is a contiguous SSD sector range.
type span struct {
	at, n int64
}

// logAlloc manages the SSD cache region like a log-based file: space is
// handed out by appending at the head, so consecutive cache writes are
// physically sequential on the SSD; freed extents are recycled first-fit
// once the head reaches capacity.
type logAlloc struct {
	capSectors int64
	head       int64
	free       []span // sorted by position, coalesced
	used       int64
	// sequential false scatters allocations (ablation A4): positions
	// are drawn from rng anywhere in the region.
	sequential bool
	rng        *sim.RNG
}

func newLogAlloc(capSectors int64, sequential bool, rng *sim.RNG) *logAlloc {
	return &logAlloc{capSectors: capSectors, sequential: sequential, rng: rng}
}

// alloc reserves n sectors, returning the position, or false if no
// contiguous run of n sectors is available.
func (a *logAlloc) alloc(n int64) (int64, bool) {
	if n <= 0 || a.used+n > a.capSectors {
		return 0, false
	}
	if !a.sequential {
		// Scattered placement: timing model only (overlap harmless).
		a.used += n
		return a.rng.Range(0, a.capSectors), true
	}
	if a.head+n <= a.capSectors {
		at := a.head
		a.head += n
		a.used += n
		return at, true
	}
	for i, f := range a.free {
		if f.n >= n {
			at := f.at
			if f.n == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{at: f.at + n, n: f.n - n}
			}
			a.used += n
			return at, true
		}
	}
	return 0, false
}

// release returns a span to the allocator, coalescing with neighbours.
func (a *logAlloc) release(at, n int64) {
	if n <= 0 {
		return
	}
	a.used -= n
	if !a.sequential {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].at >= at })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{at: at, n: n}
	// Coalesce with the next span, then the previous one.
	if i+1 < len(a.free) && a.free[i].at+a.free[i].n == a.free[i+1].at {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].at+a.free[i-1].n == a.free[i].at {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Used returns allocated sectors.
func (a *logAlloc) Used() int64 { return a.used }

// extentMap is the iBridge mapping table: an ordered set of
// non-overlapping cached disk extents, supporting coverage queries for
// reads and punch-out (with splitting) for overwrites.
type extentMap struct {
	entries []*entry // sorted by lbn, non-overlapping
}

// overlapRange returns the index range [lo, hi) of entries overlapping
// [lbn, lbn+sectors).
func (m *extentMap) overlapRange(lbn, sectors int64) (int, int) {
	end := lbn + sectors
	lo := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].end() > lbn })
	hi := lo
	for hi < len(m.entries) && m.entries[hi].lbn < end {
		hi++
	}
	return lo, hi
}

// insert adds e; the caller guarantees no overlap with existing entries.
func (m *extentMap) insert(e *entry) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].lbn > e.lbn })
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// removeAt deletes the entry at index i.
func (m *extentMap) removeAt(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

// indexOf returns the index of e, or -1.
func (m *extentMap) indexOf(e *entry) int {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].lbn >= e.lbn })
	if i < len(m.entries) && m.entries[i] == e {
		return i
	}
	return -1
}

// segment is a piece of a coverage query: n sectors to read at ssdLBN,
// touching entry e.
type segment struct {
	ssdLBN int64
	n      int64
	e      *entry
}

// covered reports whether [lbn, lbn+sectors) is fully covered by cached
// extents, and if so returns the SSD segments to read, in disk order.
func (m *extentMap) covered(lbn, sectors int64) ([]segment, bool) {
	lo, hi := m.overlapRange(lbn, sectors)
	cur := lbn
	end := lbn + sectors
	var segs []segment
	for i := lo; i < hi; i++ {
		e := m.entries[i]
		if e.lbn > cur {
			return nil, false // gap
		}
		from := cur
		to := min(e.end(), end)
		segs = append(segs, segment{ssdLBN: e.ssdLBN + (from - e.lbn), n: to - from, e: e})
		cur = to
		if cur >= end {
			return segs, true
		}
	}
	return nil, false
}

// dirtyOverlaps returns the SSD segments of dirty entries intersecting
// [lbn, lbn+sectors) (a partially cached read must still fetch dirty
// pieces from the SSD for correctness).
func (m *extentMap) dirtyOverlaps(lbn, sectors int64) []segment {
	lo, hi := m.overlapRange(lbn, sectors)
	end := lbn + sectors
	var segs []segment
	for i := lo; i < hi; i++ {
		e := m.entries[i]
		if !e.dirty {
			continue
		}
		from := max(e.lbn, lbn)
		to := min(e.end(), end)
		segs = append(segs, segment{ssdLBN: e.ssdLBN + (from - e.lbn), n: to - from, e: e})
	}
	return segs
}

// punched describes the outcome of a punch: entries removed entirely and
// sectors trimmed per class (for usage accounting).
type punched struct {
	removed []*entry
	// freedSectors[class] accumulates sectors trimmed off surviving
	// (split/shrunk) entries, which stay in their LRU lists.
	freedSectors [2]int64
}

// punch removes the range [lbn, lbn+sectors) from the map, splitting or
// shrinking entries that partially overlap. New entries created by splits
// are returned via addMRU so the bridge can link them into its LRU lists.
func (m *extentMap) punch(lbn, sectors int64, addMRU func(*entry)) punched {
	var out punched
	end := lbn + sectors
	lo, hi := m.overlapRange(lbn, sectors)
	i := lo
	for i < hi {
		e := m.entries[i]
		switch {
		case e.lbn >= lbn && e.end() <= end:
			// Entirely inside: remove.
			out.removed = append(out.removed, e)
			m.removeAt(i)
			hi--
		case e.lbn < lbn && e.end() > end:
			// Punch strictly inside e: split into left and right.
			leftN := lbn - e.lbn
			rightN := e.end() - end
			cut := e.sectors - leftN - rightN
			right := &entry{
				lbn:     end,
				sectors: rightN,
				ssdLBN:  e.ssdLBN + leftN + cut,
				dirty:   e.dirty,
				class:   e.class,
				ret:     e.ret,
			}
			out.freedSectors[e.class] += cut
			e.sectors = leftN
			m.insert(right)
			addMRU(right)
			return out // nothing else can overlap
		case e.lbn < lbn:
			// Punch cuts e's tail.
			cut := e.end() - lbn
			out.freedSectors[e.class] += cut
			e.sectors -= cut
			i++
		default:
			// Punch cuts e's head.
			cut := end - e.lbn
			out.freedSectors[e.class] += cut
			e.lbn += cut
			e.ssdLBN += cut
			e.sectors -= cut
			i++
		}
	}
	return out
}

// Len returns the number of cached extents.
func (m *extentMap) Len() int { return len(m.entries) }
