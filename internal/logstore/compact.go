package logstore

import (
	"os"
	"sort"
	"time"
)

// sortedKeys returns m's keys ascending, so map iterations that feed
// file I/O or on-disk bytes are deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// compactor is the background compaction goroutine. It owns no state:
// WriteAt signals it (non-blocking) when the garbage ratio crosses the
// threshold and Close shuts it down via quit.
func (s *LogStore) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.compactC:
			s.maybeCompact()
		}
	}
}

// needCompactLocked reports whether the dead-byte ratio warrants a
// compaction (mu held).
func (s *LogStore) needCompactLocked() bool {
	if s.crashed || s.deviceDown || s.dataBytes < s.cfg.CompactMinBytes {
		return false
	}
	dead := s.dataBytes - s.liveBytes
	return float64(dead) > s.cfg.GarbageRatio*float64(s.dataBytes)
}

// maybeCompact compacts when the threshold still holds by the time the
// lock is acquired.
func (s *LogStore) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.needCompactLocked() {
		s.compactLocked()
	}
}

// Compact forces a compaction cycle regardless of the garbage ratio:
// every live extent is rewritten into a fresh segment, a checkpoint
// referencing only that segment is installed, and the old segments are
// deleted. No-op on a crashed or degraded store.
func (s *LogStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.deviceDown {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the live extents into segment max+1, sorted
// by (object, offset) and stamped with the current generation, then
// checkpoints and deletes the superseded segments (mu held
// exclusively — compaction stops the world, which at simulation scale
// costs less than the machinery to make it concurrent; DESIGN §14).
//
// The crash matrix is covered by recover's two rules — "delete
// segments the checkpoint doesn't reference" and "a corrupt checkpoint
// means full replay, oldest segment first":
//
//   - crash before the new checkpoint installs: the old checkpoint
//     still references only the old segments, so the (possibly torn)
//     new segment is deleted as an orphan; and if the checkpoint is
//     ALSO unreadable, full replay applies the new segment's records
//     after the old ones — they rewrite identical bytes under a
//     generation ≥ every predecessor, so the state is unchanged.
//   - crash after the checkpoint installs but before the old segments
//     are deleted: the new checkpoint references only the new segment,
//     so recover deletes the stale ones.
func (s *LogStore) compactLocked() error {
	start := time.Now()
	var newSeq uint64
	for _, seq := range sortedKeys(s.segs) {
		newSeq = seq
	}
	newSeq++
	f, tail, err := s.openSegment(newSeq, true)
	if err != nil {
		return err
	}
	// The new segment joins the handle map immediately so the store
	// stays readable (and recover-consistent) even if the rewrite fails
	// partway: extents are repointed only after their bytes are in the
	// new segment.
	s.segs[newSeq] = f
	var frame []byte
	var data []byte
	for _, id := range sortedKeys(s.objects) {
		o := s.objects[id]
		exts := o.ext.Extents()
		for i := range exts {
			e := &exts[i]
			if int64(cap(data)) < e.N {
				data = make([]byte, e.N)
			}
			d := data[:e.N]
			if _, err := s.segs[e.Val.seg].ReadAt(d, e.Val.pos); err != nil {
				return err
			}
			frame = appendRecord(frame[:0], record{kind: recKindWrite, gen: s.gen, file: id, off: e.Off, data: d})
			if _, err := f.WriteAt(frame, tail); err != nil {
				return err
			}
			e.Val = loc{seg: newSeq, pos: tail + recOverhead, gen: s.gen}
			tail += int64(len(frame))
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	s.active, s.tail = newSeq, tail
	s.dataBytes = s.liveBytes
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	for _, seq := range sortedKeys(s.segs) {
		if seq == newSeq {
			continue
		}
		s.segs[seq].Close()
		os.Remove(segPath(s.dir, seq))
		delete(s.segs, seq)
	}
	s.frameBytes = tail
	s.st.compactionRuns++
	if s.oc != nil {
		s.oc.compactionRuns.Inc()
		s.setByteGauges()
	}
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.compact", s.cfg.Scope, start, time.Since(start))
	}
	return nil
}
