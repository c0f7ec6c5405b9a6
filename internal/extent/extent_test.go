package extent

import (
	"math/rand"
	"testing"
)

// src names the byte a value points at: the write that carried it and
// the byte's position within that write.
type src struct {
	id  int
	pos int64
}

func (s src) Trim(skip, n int64) src { return src{s.id, s.pos + skip} }

// model is the flat reference: one cell per byte, id 0 meaning unmapped.
type model []src

func (m model) insert(off, n int64, id int) (superseded int64) {
	for k := range n {
		if m[off+k].id != 0 {
			superseded++
		}
		m[off+k] = src{id, k}
	}
	return superseded
}

func (m model) punch(off, n int64, match func(src) bool) (removed int64) {
	for k := off; k < off+n; k++ {
		// match looks only at the write id.
		if c := m[k]; c.id != 0 && match(src{c.id, 0}) {
			m[k] = src{}
			removed++
		}
	}
	return removed
}

// check verifies the map's structural invariants and that it resolves
// every byte exactly as the model does.
func check(t *testing.T, step int, m *Map[src], ref model) {
	t.Helper()
	got := make(model, len(ref))
	var prevEnd int64
	for i, e := range m.Extents() {
		if e.N <= 0 || e.Off < prevEnd {
			t.Fatalf("step %d: extent %d [%d,+%d) empty or overlaps previous end %d", step, i, e.Off, e.N, prevEnd)
		}
		prevEnd = e.End()
		for k := range e.N {
			got[e.Off+k] = src{e.Val.id, e.Val.pos + k}
		}
	}
	for x := range ref {
		if got[x] != ref[x] {
			t.Fatalf("step %d: byte %d resolves to %+v, want %+v", step, x, got[x], ref[x])
		}
	}
}

// TestMapMatchesFlatModel drives random inserts and punches (of every
// extent, and of odd write ids only) against a byte-per-cell model. After
// every step it checks the sorted/non-overlapping invariants, the
// superseded and removed byte counts, and that Each returns exactly the
// clipped model contents of a random range.
func TestMapMatchesFlatModel(t *testing.T) {
	const size = 512
	rng := rand.New(rand.NewSource(1))
	var m Map[src]
	ref := make(model, size)
	for step := range 4000 {
		off := rng.Int63n(size)
		n := 1 + rng.Int63n(min(64, size-off))
		switch rng.Intn(4) {
		case 0, 1:
			id := step + 1
			want := ref.insert(off, n, id)
			if got := m.Insert(off, n, src{id, 0}); got != want {
				t.Fatalf("step %d: Insert superseded %d, want %d", step, got, want)
			}
		case 2:
			all := func(src) bool { return true }
			want := ref.punch(off, n, all)
			if got := m.Punch(off, n, all); got != want {
				t.Fatalf("step %d: Punch removed %d, want %d", step, got, want)
			}
		case 3:
			odd := func(v src) bool { return v.id%2 == 1 }
			want := ref.punch(off, n, odd)
			if got := m.Punch(off, n, odd); got != want {
				t.Fatalf("step %d: Punch(odd) removed %d, want %d", step, got, want)
			}
		}
		check(t, step, &m, ref)

		qoff := rng.Int63n(size)
		qn := 1 + rng.Int63n(size-qoff)
		next := qoff
		m.Each(qoff, qn, func(e Extent[src]) {
			if e.Off < next || e.N <= 0 || e.End() > qoff+qn {
				t.Fatalf("step %d: Each(%d,+%d) visited [%d,+%d) out of order or range", step, qoff, qn, e.Off, e.N)
			}
			for x := next; x < e.Off; x++ {
				if ref[x].id != 0 {
					t.Fatalf("step %d: Each skipped mapped byte %d", step, x)
				}
			}
			for k := range e.N {
				if c := (src{e.Val.id, e.Val.pos + k}); c != ref[e.Off+k] {
					t.Fatalf("step %d: Each byte %d = %+v, want %+v", step, e.Off+k, c, ref[e.Off+k])
				}
			}
			next = e.End()
		})
		for x := next; x < qoff+qn; x++ {
			if ref[x].id != 0 {
				t.Fatalf("step %d: Each missed mapped byte %d", step, x)
			}
		}
	}
}

func TestInsertSplitsAndEmptyIsNoop(t *testing.T) {
	var m Map[src]
	m.Insert(0, 100, src{1, 0})
	if got := m.Insert(40, 20, src{2, 0}); got != 20 {
		t.Fatalf("superseded = %d, want 20", got)
	}
	want := []Extent[src]{{0, 40, src{1, 0}}, {40, 20, src{2, 0}}, {60, 40, src{1, 60}}}
	if got := m.Extents(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("extents = %+v, want %+v", got, want)
	}
	if m.Insert(10, 0, src{3, 0}) != 0 || m.Len() != 3 {
		t.Fatalf("empty insert changed the map: %+v", m.Extents())
	}
}

func TestAppendRejectsDisorder(t *testing.T) {
	var m Map[src]
	for _, tc := range []struct {
		e  Extent[src]
		ok bool
	}{
		{Extent[src]{Off: -1, N: 4}, false},
		{Extent[src]{Off: 0, N: 0}, false},
		{Extent[src]{Off: 0, N: 10}, true},
		{Extent[src]{Off: 5, N: 10}, false},
		{Extent[src]{Off: 10, N: 10}, true},
		{Extent[src]{Off: 0, N: 1}, false},
	} {
		if got := m.Append(tc.e); got != tc.ok {
			t.Fatalf("Append(%+v) = %v, want %v", tc.e, got, tc.ok)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
}
