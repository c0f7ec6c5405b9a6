package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLogAllocSequentialAppend(t *testing.T) {
	a := newLogAlloc(1000, true, sim.NewRNG(1))
	at1, ok1 := a.alloc(100)
	at2, ok2 := a.alloc(50)
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	if at1 != 0 || at2 != 100 {
		t.Fatalf("allocations at %d,%d; want 0,100 (log append)", at1, at2)
	}
	if a.Used() != 150 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestLogAllocCapacity(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	if _, ok := a.alloc(101); ok {
		t.Fatal("over-capacity allocation succeeded")
	}
	if _, ok := a.alloc(100); !ok {
		t.Fatal("exact-capacity allocation failed")
	}
	if _, ok := a.alloc(1); ok {
		t.Fatal("allocation from a full log succeeded")
	}
}

func TestLogAllocRecycleAfterRelease(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	at1, _ := a.alloc(60)
	a.alloc(40)
	a.release(at1, 60)
	at3, ok := a.alloc(50)
	if !ok {
		t.Fatal("recycled allocation failed")
	}
	if at3 != at1 {
		t.Fatalf("recycled at %d, want %d (first fit)", at3, at1)
	}
}

func TestLogAllocCoalescing(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	a.alloc(100)
	// Release three adjacent pieces out of order; they must coalesce so
	// a large allocation fits.
	a.release(30, 10)
	a.release(50, 10)
	a.release(40, 10)
	if at, ok := a.alloc(30); !ok || at != 30 {
		t.Fatalf("coalesced alloc = (%d,%v), want (30,true)", at, ok)
	}
}

func TestLogAllocScatteredMode(t *testing.T) {
	a := newLogAlloc(1_000_000, false, sim.NewRNG(7))
	positions := map[int64]bool{}
	for i := 0; i < 50; i++ {
		at, ok := a.alloc(10)
		if !ok {
			t.Fatal("alloc failed")
		}
		positions[at] = true
	}
	if len(positions) < 45 {
		t.Fatalf("scattered mode produced only %d distinct positions", len(positions))
	}
	if a.Used() != 500 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestLRUOrder(t *testing.T) {
	var l lruList
	a := &entry{lbn: 1}
	b := &entry{lbn: 2}
	c := &entry{lbn: 3}
	l.pushMRU(a)
	l.pushMRU(b)
	l.pushMRU(c)
	if l.head != a || l.tail != c || l.count != 3 {
		t.Fatal("initial order wrong")
	}
	l.touch(a) // a becomes MRU
	if l.head != b || l.tail != a {
		t.Fatal("touch did not move to MRU")
	}
	l.remove(b)
	if l.head != c || l.count != 2 {
		t.Fatal("remove head failed")
	}
	l.remove(a)
	l.remove(c)
	if l.head != nil || l.tail != nil || l.count != 0 {
		t.Fatal("list not empty after removing all")
	}
}

func mkMap(exts ...[2]int64) *extentMap {
	m := &extentMap{}
	for i, x := range exts {
		m.insert(&entry{lbn: x[0], sectors: x[1], ssdLBN: int64(i * 10000)})
	}
	return m
}

func TestCoveredExact(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	segs, ok := m.covered(100, 50)
	if !ok || len(segs) != 1 || segs[0].ssdLBN != 0 || segs[0].n != 50 {
		t.Fatalf("covered = %v, %v", segs, ok)
	}
}

func TestCoveredSubRange(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	segs, ok := m.covered(110, 20)
	if !ok || segs[0].ssdLBN != 10 || segs[0].n != 20 {
		t.Fatalf("sub-range coverage = %v, %v", segs, ok)
	}
}

func TestCoveredAcrossEntries(t *testing.T) {
	m := mkMap([2]int64{100, 50}, [2]int64{150, 50})
	segs, ok := m.covered(120, 60)
	if !ok || len(segs) != 2 {
		t.Fatalf("cross-entry coverage = %v, %v", segs, ok)
	}
	if segs[0].n != 30 || segs[1].n != 30 {
		t.Fatalf("segment lengths = %d,%d", segs[0].n, segs[1].n)
	}
	if segs[1].ssdLBN != 10000 {
		t.Fatalf("second segment ssdLBN = %d", segs[1].ssdLBN)
	}
}

func TestNotCoveredWithGap(t *testing.T) {
	m := mkMap([2]int64{100, 50}, [2]int64{160, 50})
	if _, ok := m.covered(120, 60); ok {
		t.Fatal("gap reported as covered")
	}
	if _, ok := m.covered(0, 10); ok {
		t.Fatal("empty region reported as covered")
	}
	if _, ok := m.covered(140, 30); ok {
		t.Fatal("trailing gap reported as covered")
	}
}

func TestPunchWholeEntry(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	out := m.punch(100, 50, func(*entry) {})
	if len(out.removed) != 1 || m.Len() != 0 {
		t.Fatalf("punch removed %d entries, map has %d", len(out.removed), m.Len())
	}
	if out.removed[0].sectors != 50 || out.freedSectors != ([2]int64{}) {
		t.Fatalf("removed %d sectors, freedSectors = %v", out.removed[0].sectors, out.freedSectors)
	}
}

func TestPunchTail(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	out := m.punch(130, 100, func(*entry) {})
	if len(out.removed) != 0 || m.Len() != 1 {
		t.Fatal("tail punch should shrink, not remove")
	}
	e := m.entries[0]
	if e.lbn != 100 || e.sectors != 30 {
		t.Fatalf("entry after tail punch = [%d,+%d]", e.lbn, e.sectors)
	}
	if out.freedSectors[e.class] != 20 {
		t.Fatalf("freedSectors = %v", out.freedSectors)
	}
}

func TestPunchHead(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	m.punch(50, 70, func(*entry) {})
	e := m.entries[0]
	if e.lbn != 120 || e.sectors != 30 || e.ssdLBN != 20 {
		t.Fatalf("entry after head punch = lbn=%d n=%d ssd=%d", e.lbn, e.sectors, e.ssdLBN)
	}
}

func TestPunchSplit(t *testing.T) {
	m := mkMap([2]int64{100, 50})
	var added []*entry
	out := m.punch(110, 10, func(e *entry) { added = append(added, e) })
	if m.Len() != 2 || len(added) != 1 {
		t.Fatalf("split produced %d entries, %d callbacks", m.Len(), len(added))
	}
	left, right := m.entries[0], m.entries[1]
	if left.lbn != 100 || left.sectors != 10 {
		t.Fatalf("left = [%d,+%d]", left.lbn, left.sectors)
	}
	if right.lbn != 120 || right.sectors != 30 || right.ssdLBN != 20 {
		t.Fatalf("right = lbn=%d n=%d ssd=%d", right.lbn, right.sectors, right.ssdLBN)
	}
	if out.freedSectors[left.class] != 10 {
		t.Fatalf("freedSectors = %v", out.freedSectors)
	}
	// Coverage across the split must now fail.
	if _, ok := m.covered(100, 50); ok {
		t.Fatal("punched range still covered")
	}
	// But the remnants must still be covered.
	if _, ok := m.covered(100, 10); !ok {
		t.Fatal("left remnant lost")
	}
	if _, ok := m.covered(120, 30); !ok {
		t.Fatal("right remnant lost")
	}
}

func TestPunchSpanningMultipleEntries(t *testing.T) {
	m := mkMap([2]int64{100, 50}, [2]int64{150, 50}, [2]int64{200, 50})
	out := m.punch(130, 90, func(*entry) {})
	// Middle entry removed entirely; first loses tail, last loses head.
	if len(out.removed) != 1 || out.removed[0].lbn != 150 {
		t.Fatalf("removed = %v", out.removed)
	}
	if m.Len() != 2 {
		t.Fatalf("map has %d entries", m.Len())
	}
	if m.entries[0].sectors != 30 || m.entries[1].lbn != 220 {
		t.Fatalf("remnants = %v %v", m.entries[0], m.entries[1])
	}
}

func TestDirtyOverlaps(t *testing.T) {
	m := &extentMap{}
	m.insert(&entry{lbn: 100, sectors: 50, dirty: true})
	m.insert(&entry{lbn: 200, sectors: 50, dirty: false})
	segs := m.dirtyOverlaps(120, 150)
	if len(segs) != 1 || segs[0].n != 30 {
		t.Fatalf("dirtyOverlaps = %v", segs)
	}
}

// TestExtentMapInvariant property-checks that after arbitrary insert and
// punch sequences the map stays sorted and non-overlapping.
func TestExtentMapInvariant(t *testing.T) {
	type op struct {
		Punch        bool
		Lbn, Sectors uint16
	}
	if err := quick.Check(func(ops []op) bool {
		m := &extentMap{}
		for _, o := range ops {
			lbn := int64(o.Lbn)
			sectors := int64(o.Sectors%256) + 1
			if o.Punch {
				m.punch(lbn, sectors, func(*entry) {})
			} else {
				m.punch(lbn, sectors, func(*entry) {}) // clear first
				m.insert(&entry{lbn: lbn, sectors: sectors})
			}
			// Invariant: sorted, non-overlapping.
			for i := 1; i < len(m.entries); i++ {
				if m.entries[i-1].end() > m.entries[i].lbn {
					return false
				}
			}
			for _, e := range m.entries {
				if e.sectors <= 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageMatchesReference property-checks covered() against a naive
// per-sector reference model.
func TestCoverageMatchesReference(t *testing.T) {
	type op struct {
		Lbn, Sectors uint8
	}
	if err := quick.Check(func(inserts []op, qLbn, qSectors uint8) bool {
		m := &extentMap{}
		ref := map[int64]bool{}
		for _, o := range inserts {
			lbn, n := int64(o.Lbn), int64(o.Sectors%32)+1
			m.punch(lbn, n, func(*entry) {})
			m.insert(&entry{lbn: lbn, sectors: n})
			for s := lbn; s < lbn+n; s++ {
				ref[s] = true
			}
		}
		qn := int64(qSectors%32) + 1
		_, got := m.covered(int64(qLbn), qn)
		want := true
		for s := int64(qLbn); s < int64(qLbn)+qn; s++ {
			if !ref[s] {
				want = false
				break
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
