// Package logstore is the crash-consistent, log-structured object
// store backing pfsnet data servers on an SSD: the durable analogue of
// the paper's on-SSD fragment log and mapping table (PAPER.md §4).
//
// Every write appends one checksummed, length-prefixed record to the
// active log segment; an in-memory mapping table (per-object sorted
// extent index over log offsets) resolves reads. Durability and
// recovery come from three mechanisms (DESIGN §14):
//
//   - Journal replay. Open loads the most recent durable checkpoint
//     (the serialized mapping table) and replays the log suffix past
//     it. The first record that fails to frame or checksum marks the
//     torn tail: the file is truncated there, so a crash mid-append
//     loses at most the record being written — never an acknowledged
//     one, and never a byte of one (records are atomic).
//   - Checkpoints. The mapping table is serialized to a staging file,
//     fsynced, and renamed over the previous checkpoint — atomically —
//     after every CheckpointBytes of appended log, at every clean
//     Close, and once per Open (which also stamps the new generation).
//     A corrupt or missing checkpoint is never trusted: Open falls
//     back to replaying every surviving segment from offset zero,
//     which reconstructs the identical state (the checkpoint is an
//     accelerator, not a source of truth).
//   - Generation stamps. Each Open bumps the store generation and
//     every record carries the generation that appended it. A replayed
//     suffix must carry exactly the checkpoint's generation (full
//     replay: non-decreasing generations); anything else is treated as
//     corruption and truncated. Re-issued writeback after a
//     crash/restart appends a fresh record under the new generation —
//     applying it on top of a survivor of the old one is idempotent
//     (last-writer-wins over identical bytes).
//
// Background compaction rewrites live extents into a fresh segment
// once the dead-byte ratio passes Config.GarbageRatio, then installs a
// checkpoint and deletes the old segment. The union of surviving
// segments replayed in (sequence, offset) order always reproduces the
// store state, whatever instant a crash interrupts compaction at.
//
// The store degrades, never lies: a simulated SSD device failure
// (FailDevice, driven by the fault plan's ssdfail clause) freezes the
// log and serves all subsequent I/O from an in-memory snapshot —
// losing durability and performance, not bytes, per DESIGN §10.
package logstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extent"
	"repro/internal/obs"
)

// loc is where an extent's current bytes live in the log.
type loc struct {
	seg uint64 // segment holding the data
	pos int64  // absolute offset of the first data byte in seg
	gen uint64 // generation of the record that wrote it
}

// Trim implements extent.Value: a sub-range starts skip bytes further
// into the same record.
func (l loc) Trim(skip, _ int64) loc {
	l.pos += skip
	return l
}

// object is the in-memory index of one stored object: its logical size
// (monotone, sparse-write semantics) and its extents over the log.
type object struct {
	size int64
	ext  extent.Map[loc]
}

// insert records that the n bytes at off now live at l, growing the
// logical size, and returns the bytes it superseded (now log garbage).
func (o *object) insert(off, n int64, l loc) (dead int64) {
	o.size = max(o.size, off+n)
	return o.ext.Insert(off, n, l)
}

// ErrCrashed reports an operation against a store whose simulated
// process kill (CrashAppend) has already fired: the store is dead
// until the next Open replays the log.
var ErrCrashed = fmt.Errorf("logstore: simulated crash; reopen to recover")

// Config tunes one store instance. The zero value gives usable
// defaults.
type Config struct {
	// CheckpointBytes installs a mapping-table checkpoint after this
	// many appended log bytes (default 4 MB; negative disables periodic
	// checkpoints — Open and clean Close still install one).
	CheckpointBytes int64
	// GarbageRatio triggers background compaction when
	// dead bytes / total data bytes exceeds it (default 0.5; must be
	// in (0, 1)).
	GarbageRatio float64
	// CompactMinBytes suppresses compaction below this much appended
	// data, so tiny stores don't churn (default 1 MB).
	CompactMinBytes int64
	// NoCompactor disables the background compaction goroutine; tests
	// and the recovery harness call Compact explicitly.
	NoCompactor bool
	// Obs, when set, receives "logstore.*" metrics (appends, log/live
	// bytes, checkpoints, replays, truncated tails, compaction runs).
	Obs *obs.Registry
	// Tracer, when set, records replay/checkpoint/compaction spans
	// under Scope.
	Tracer *obs.XTracer
	// Scope names this store in spans and log lines (e.g. "srv0").
	Scope string
}

// Stats is a snapshot of store activity since Open.
type Stats struct {
	// Appends counts acknowledged record appends; AppendedBytes their
	// data payload bytes.
	Appends, AppendedBytes int64
	// LogBytes is the current on-disk log size (all segments, frames
	// included); LiveBytes the data bytes still referenced by the
	// mapping table.
	LogBytes, LiveBytes int64
	// Checkpoints counts installed checkpoints; Replays counts Opens
	// that found existing state; ReplayedRecords the records applied
	// by those replays.
	Checkpoints, Replays, ReplayedRecords int64
	// TruncatedTails counts torn tails cut off during replay;
	// BadGenerations counts records rejected by the generation check;
	// BadCheckpoints counts checkpoints that failed validation and
	// forced a full replay.
	TruncatedTails, BadGenerations, BadCheckpoints int64
	// CompactionRuns counts completed compactions.
	CompactionRuns int64
	// Generation is the store generation stamped on new records.
	Generation uint64
	// DeviceFailed reports degraded (in-memory) mode.
	DeviceFailed bool
	// Crashed reports a fired simulated kill.
	Crashed bool
}

// obsCounters are the pre-resolved registry instruments; nil when the
// store runs without a registry (the zero-cost-when-off contract).
type obsCounters struct {
	appends, checkpoints, replays, replayedRecords *obs.Counter
	truncatedTails, badGenerations, badCheckpoints *obs.Counter
	compactionRuns, deviceFailures                 *obs.Counter
	logBytes, liveBytes                            *obs.Gauge
}

// LogStore implements pfsnet.ObjectStore over an append-only,
// checksummed log with checkpointed recovery. Safe for concurrent use:
// reads share the lock, writes and compaction serialize on it.
type LogStore struct {
	dir string
	cfg Config

	// mu guards all mutable state below. Appends write the log file
	// inside the critical section deliberately: the log's append order
	// IS the replay apply order, so the write cannot move outside the
	// lock without reordering recovery. Reads hold it shared, which
	// also pins the segment files against a concurrent compaction swap.
	mu      sync.RWMutex
	segs    map[uint64]*os.File
	active  uint64 // sequence of the append segment
	tail    int64  // append offset in the active segment
	objects map[uint64]*object
	gen     uint64

	liveBytes  int64 // data bytes referenced by the mapping table
	dataBytes  int64 // data bytes appended across live segments (live+dead)
	frameBytes int64 // on-disk bytes across live segments
	sinceCkpt  int64 // log bytes appended since the last checkpoint
	enc        []byte

	deviceDown bool
	overlay    map[uint64][]byte // degraded-mode in-memory objects

	// Simulated-kill injection (CrashAppend): when crashAfter counts
	// down to zero the append writes only a prefix of its frame and the
	// store latches dead, exactly as if the process took SIGKILL
	// between two pwrites.
	crashAfter int64
	crashFrac  float64
	crashed    bool

	appends atomic.Int64 // record appends; read lock-free by pfsnet's ssdfail trigger

	st struct {
		appendedBytes, checkpoints, replays, replayedRecords int64
		truncatedTails, badGenerations, badCheckpoints       int64
		compactionRuns, deviceFailures                       int64
	}
	oc *obsCounters

	quit      chan struct{}
	compactC  chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

const (
	segPrefix    = "seg-"
	segSuffix    = ".log"
	segHeaderLen = 16 // magic + sequence
	ckptName     = "checkpoint"
	ckptTmpName  = "checkpoint.tmp"
)

var segMagic = [8]byte{'I', 'B', 'L', 'S', 'E', 'G', '0', '1'}

// Open opens (or creates) the store under dir, replaying any existing
// journal: the checkpointed mapping table is loaded, the log suffix is
// replayed, torn tails are truncated, and a fresh checkpoint is
// installed under the bumped generation before the store serves.
func Open(dir string, cfg Config) (*LogStore, error) {
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = 4 << 20
	}
	if cfg.GarbageRatio <= 0 || cfg.GarbageRatio >= 1 {
		cfg.GarbageRatio = 0.5
	}
	if cfg.CompactMinBytes <= 0 {
		cfg.CompactMinBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &LogStore{
		dir:     dir,
		cfg:     cfg,
		segs:    make(map[uint64]*os.File),
		objects: make(map[uint64]*object),
	}
	if reg := cfg.Obs; reg != nil {
		s.oc = &obsCounters{
			appends:         reg.Counter("logstore.appends"),
			checkpoints:     reg.Counter("logstore.checkpoints"),
			replays:         reg.Counter("logstore.replays"),
			replayedRecords: reg.Counter("logstore.replayed_records"),
			truncatedTails:  reg.Counter("logstore.truncated_tails"),
			badGenerations:  reg.Counter("logstore.bad_generations"),
			badCheckpoints:  reg.Counter("logstore.bad_checkpoints"),
			compactionRuns:  reg.Counter("logstore.compaction_runs"),
			deviceFailures:  reg.Counter("logstore.device_failures"),
			logBytes:        reg.Gauge("logstore.log_bytes"),
			liveBytes:       reg.Gauge("logstore.live_bytes"),
		}
	}
	if err := s.recover(); err != nil {
		s.closeSegsLocked()
		return nil, err
	}
	s.quit = make(chan struct{})
	s.compactC = make(chan struct{}, 1)
	if !cfg.NoCompactor {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// segPath returns the path of segment seq.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

// listSegments returns the sequence numbers of the segment files under
// dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover rebuilds the mapping table from the checkpoint and journal,
// truncates torn tails, bumps the generation, and installs the
// recovery checkpoint. Called from Open, before any concurrency.
func (s *LogStore) recover() error {
	start := time.Now()
	ck, ckOK := loadCheckpoint(filepath.Join(s.dir, ckptName))
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	hadState := ckOK || len(seqs) > 0
	// A checkpoint usually references one segment (compaction rewrites
	// everything into the new one before checkpointing), but a recovery
	// checkpoint taken after a full replay can reference several. Every
	// referenced segment must survive on disk or the checkpoint is not
	// trustworthy.
	var refs map[uint64]bool
	if ckOK {
		refs = map[uint64]bool{ck.seg: true}
		for _, o := range ck.objects {
			for _, e := range o.ext.Extents() {
				refs[e.Val.seg] = true
			}
		}
		for _, seq := range sortedKeys(refs) {
			if !containsSeq(seqs, seq) {
				ckOK = false
				break
			}
		}
	}
	if !ckOK && hadState {
		s.st.badCheckpoints++
		if s.oc != nil {
			s.oc.badCheckpoints.Inc()
		}
	}
	if ckOK {
		// Unreferenced segments — compaction input already superseded
		// by the checkpoint, or a torn compaction output that never
		// made it into one — are deleted, not replayed: the referenced
		// segments cover all live data.
		for _, seq := range seqs {
			if !refs[seq] {
				os.Remove(segPath(s.dir, seq))
			}
		}
		for _, seq := range sortedKeys(refs) {
			f, tail, err := s.openSegment(seq, false)
			if err != nil {
				return err
			}
			s.segs[seq] = f
			s.frameBytes += tail
			if seq == ck.seg {
				s.active, s.tail = seq, tail
			}
		}
		s.gen = ck.gen
		s.objects, s.liveBytes = ck.objects, ck.liveBytes
		s.dataBytes = ck.dataBytes
		// Replay the active segment's suffix past the checkpoint.
		// Records there must carry exactly the checkpoint's generation:
		// the generation is re-stamped by the checkpoint every Open
		// installs, so any other value is corruption, not history.
		if err := s.replaySegment(ck.seg, max(ck.off, segHeaderLen), ck.gen, true); err != nil {
			return err
		}
	} else {
		// No trustworthy checkpoint: replay every surviving segment
		// from scratch, oldest first. Generations must be
		// non-decreasing in append order.
		var lastGen uint64
		for _, seq := range seqs {
			f, tail, err := s.openSegment(seq, false)
			if err != nil {
				return err
			}
			s.segs[seq] = f
			s.active, s.tail = seq, tail
			s.frameBytes += tail
			if err := s.replaySegment(seq, segHeaderLen, lastGen, false); err != nil {
				return err
			}
			lastGen = s.gen
		}
	}
	if len(s.segs) == 0 {
		s.active = 1
		f, tail, err := s.openSegment(s.active, true)
		if err != nil {
			return err
		}
		s.segs[s.active] = f
		s.tail, s.frameBytes = tail, tail
	}
	s.gen++ // this run's generation
	if hadState {
		s.st.replays++
		if s.oc != nil {
			s.oc.replays.Inc()
		}
	}
	// The recovery checkpoint stamps the new generation and makes the
	// truncated, replayed state durable before the store serves.
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	s.setByteGauges()
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.replay", s.cfg.Scope, start, time.Since(start))
	}
	return nil
}

// containsSeq reports whether seqs (ascending) contains seq.
func containsSeq(seqs []uint64, seq uint64) bool {
	i := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= seq })
	return i < len(seqs) && seqs[i] == seq
}

// openSegment opens segment seq, creating and stamping it when create
// is set, and returns the handle plus its current size. An existing
// segment whose header is torn (shorter than the header, or stamped
// wrong) is reset to an empty stamped segment — the header write
// itself can be the interrupted operation.
func (s *LogStore) openSegment(seq uint64, create bool) (*os.File, int64, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(segPath(s.dir, seq), flags, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	var hdr [segHeaderLen]byte
	ok := size >= segHeaderLen
	if ok {
		if _, err := f.ReadAt(hdr[:8], 0); err != nil || [8]byte(hdr[:8]) != segMagic {
			ok = false
		}
	}
	if !ok {
		copy(hdr[:8], segMagic[:])
		putU64(hdr[8:], seq)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Truncate(segHeaderLen); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = segHeaderLen
	}
	return f, size, nil
}

// replaySegment applies the records of segment seq from byte offset
// from to the current tail. strict pins every record's generation to
// wantGen (suffix replay under a checkpoint); otherwise generations
// must be non-decreasing starting at wantGen and s.gen tracks the
// highest seen. The first framing, checksum, or generation violation
// truncates the segment there (the torn tail) and ends its replay.
func (s *LogStore) replaySegment(seq uint64, from int64, wantGen uint64, strict bool) error {
	f := s.segs[seq]
	if from > s.tail {
		from = s.tail
	}
	buf := make([]byte, s.tail-from)
	if _, err := f.ReadAt(buf, from); err != nil && err != io.EOF {
		return err
	}
	pos := from
	lastGen := wantGen
	for len(buf) > 0 {
		rec, n, err := decodeRecord(buf)
		if err == nil {
			if strict && rec.gen != wantGen {
				err = fmt.Errorf("logstore: generation %d, checkpoint stamped %d", rec.gen, wantGen)
			} else if !strict && rec.gen < lastGen {
				err = fmt.Errorf("logstore: generation regressed %d -> %d", lastGen, rec.gen)
			}
			if err != nil {
				s.st.badGenerations++
				if s.oc != nil {
					s.oc.badGenerations.Inc()
				}
			}
		}
		if err != nil {
			// Torn tail: everything from pos on never happened.
			if terr := f.Truncate(pos); terr != nil {
				return terr
			}
			s.frameBytes -= s.tail - pos
			s.tail = pos
			s.st.truncatedTails++
			if s.oc != nil {
				s.oc.truncatedTails.Inc()
			}
			return nil
		}
		o := s.objects[rec.file]
		if o == nil {
			o = &object{}
			s.objects[rec.file] = o
		}
		dead := o.insert(rec.off, int64(len(rec.data)), loc{seg: seq, pos: pos + recOverhead, gen: rec.gen})
		s.liveBytes += int64(len(rec.data)) - dead
		s.dataBytes += int64(len(rec.data))
		lastGen = rec.gen
		if !strict && rec.gen > s.gen {
			s.gen = rec.gen
		}
		s.st.replayedRecords++
		if s.oc != nil {
			s.oc.replayedRecords.Inc()
		}
		buf = buf[n:]
		pos += int64(n)
	}
	return nil
}

// WriteAt implements pfsnet.ObjectStore: the write becomes one
// checksummed record appended to the active segment, acknowledged only
// after the log write returns, then published in the mapping table.
func (s *LogStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("logstore: negative offset %d", off)
	}
	if int64(len(data)) > MaxRecordData {
		return fmt.Errorf("logstore: write of %d bytes exceeds record limit %d", len(data), int64(MaxRecordData))
	}
	if len(data) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.deviceDown {
		s.overlayWriteLocked(file, off, data)
		return nil
	}
	s.enc = appendRecord(s.enc[:0], record{kind: recKindWrite, gen: s.gen, file: file, off: off, data: data})
	frame := s.enc
	f := s.segs[s.active]
	if s.crashAfter > 0 {
		if s.crashAfter--; s.crashAfter == 0 {
			// The simulated kill lands mid-pwrite: a prefix of the
			// frame reaches the log, the caller never gets its ack, and
			// the store is dead until the next Open truncates the tear.
			torn := int(float64(len(frame)) * s.crashFrac)
			torn = min(max(torn, 0), len(frame))
			if torn > 0 {
				//lint:allow lockio the log append is the critical section: append order is replay order
				f.WriteAt(frame[:torn], s.tail)
			}
			s.crashed = true
			return ErrCrashed
		}
	}
	//lint:allow lockio the log append is the critical section: append order is replay order
	if _, err := f.WriteAt(frame, s.tail); err != nil {
		return err
	}
	o := s.objects[file]
	if o == nil {
		o = &object{}
		s.objects[file] = o
	}
	dead := o.insert(off, int64(len(data)), loc{seg: s.active, pos: s.tail + recOverhead, gen: s.gen})
	s.liveBytes += int64(len(data)) - dead
	s.dataBytes += int64(len(data))
	s.tail += int64(len(frame))
	s.frameBytes += int64(len(frame))
	s.sinceCkpt += int64(len(frame))
	s.st.appendedBytes += int64(len(data))
	s.appends.Add(1)
	if s.oc != nil {
		s.oc.appends.Inc()
		s.setByteGauges()
	}
	if s.cfg.CheckpointBytes > 0 && s.sinceCkpt >= s.cfg.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	if s.needCompactLocked() {
		select {
		case s.compactC <- struct{}{}:
		default:
		}
	}
	return nil
}

// overlayWriteLocked applies a degraded-mode write to the in-memory
// snapshot (MemStore growth semantics). mu held.
func (s *LogStore) overlayWriteLocked(file uint64, off int64, data []byte) {
	o := s.overlay[file]
	if end := off + int64(len(data)); int64(len(o)) < end {
		if end <= int64(cap(o)) {
			o = o[:end]
		} else {
			grown := make([]byte, end, max(end, 2*int64(cap(o))))
			copy(grown, o)
			o = grown
		}
	}
	copy(o[off:], data)
	s.overlay[file] = o
}

// ReadAt implements pfsnet.ObjectStore with sparse semantics: ranges
// no record ever wrote read as zeros. Readers share the lock, so
// concurrent reads (same or different objects) do not serialize.
func (s *LogStore) ReadAt(file uint64, off int64, p []byte) error {
	if off < 0 {
		return fmt.Errorf("logstore: negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.crashed {
		return ErrCrashed
	}
	clear(p)
	if s.deviceDown {
		if o := s.overlay[file]; off < int64(len(o)) {
			copy(p, o[off:])
		}
		return nil
	}
	return s.readLocked(file, off, p)
}

// readLocked fills p from the mapping table and segment files (mu held
// at least shared — the hold is what pins the segments against a
// compaction swap).
func (s *LogStore) readLocked(file uint64, off int64, p []byte) error {
	o := s.objects[file]
	if o == nil {
		return nil
	}
	var err error
	o.ext.Each(off, int64(len(p)), func(e extent.Extent[loc]) {
		if err != nil {
			return
		}
		if _, rerr := s.segs[e.Val.seg].ReadAt(p[e.Off-off:e.End()-off], e.Val.pos); rerr != nil {
			err = rerr
		}
	})
	return err
}

// Size implements pfsnet.ObjectStore: the logical object length (the
// furthest byte any write reached), 0 for objects never written.
func (s *LogStore) Size(file uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.crashed {
		return 0, ErrCrashed
	}
	if s.deviceDown {
		return int64(len(s.overlay[file])), nil
	}
	if o := s.objects[file]; o != nil {
		return o.size, nil
	}
	return 0, nil
}

// Close stops the compactor, makes the log durable (fsync), installs a
// final checkpoint, and closes the segment files. After a simulated
// crash Close only releases handles: nothing more reaches the disk,
// exactly like the process it models. Idempotent.
func (s *LogStore) Close() error {
	s.closeOnce.Do(func() {
		if s.quit != nil {
			close(s.quit)
			s.wg.Wait()
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.crashed && !s.deviceDown {
			if err := s.segs[s.active].Sync(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
			if err := s.checkpointLocked(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if err := s.closeSegsLocked(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// closeSegsLocked closes every segment handle in sequence order (so
// which close error wins is deterministic) and clears the map.
func (s *LogStore) closeSegsLocked() error {
	seqs := make([]uint64, 0, len(s.segs))
	for seq := range s.segs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var first error
	for _, seq := range seqs {
		if err := s.segs[seq].Close(); err != nil && first == nil {
			first = err
		}
	}
	clear(s.segs)
	return first
}

// FailDevice simulates the SSD log device failing under the store (the
// fault plan's ssdfail clause): the current state is materialized into
// memory while the device still answers, and every subsequent
// operation is served from that snapshot — graceful degradation per
// DESIGN §10, losing durability but never an acknowledged byte within
// the process lifetime. Safe to call more than once.
func (s *LogStore) FailDevice() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deviceDown || s.crashed {
		return nil
	}
	ids := make([]uint64, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	overlay := make(map[uint64][]byte, len(ids))
	for _, id := range ids {
		o := s.objects[id]
		buf := make([]byte, o.size)
		if err := s.readLocked(id, 0, buf); err != nil {
			return err
		}
		overlay[id] = buf
	}
	s.overlay = overlay
	s.deviceDown = true
	s.st.deviceFailures++
	if s.oc != nil {
		s.oc.deviceFailures.Inc()
	}
	return nil
}

// DeviceFailed reports degraded (in-memory) mode.
func (s *LogStore) DeviceFailed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deviceDown
}

// CrashAppend arms a simulated process kill: the n-th subsequent
// record append (1-based) writes only the first frac (0..1) of its
// on-disk frame and the store latches dead — every later operation
// returns ErrCrashed, and Close neither syncs nor checkpoints. The
// next Open replays the log and truncates the torn frame, exactly as
// after a real SIGKILL between two pwrites. The recovery harness
// (cmd/logstore-chaos) drives its kill-at-every-Kth-op loop with this.
func (s *LogStore) CrashAppend(n int64, frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashAfter = n
	s.crashFrac = frac
}

// Crashed reports whether the simulated kill has fired.
func (s *LogStore) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}

// RecordAppends returns the number of acknowledged record appends
// since Open. pfsnet's data server counts these toward the fault
// plan's ssdfail trigger, so write-count fault specs apply to the
// logstore exactly as to the legacy fragment log.
func (s *LogStore) RecordAppends() int64 { return s.appends.Load() }

// Generation returns the store generation stamped on new records.
func (s *LogStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Stats returns a snapshot of store counters.
func (s *LogStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Appends:         s.appends.Load(),
		AppendedBytes:   s.st.appendedBytes,
		LogBytes:        s.frameBytes,
		LiveBytes:       s.liveBytes,
		Checkpoints:     s.st.checkpoints,
		Replays:         s.st.replays,
		ReplayedRecords: s.st.replayedRecords,
		TruncatedTails:  s.st.truncatedTails,
		BadGenerations:  s.st.badGenerations,
		BadCheckpoints:  s.st.badCheckpoints,
		CompactionRuns:  s.st.compactionRuns,
		Generation:      s.gen,
		DeviceFailed:    s.deviceDown,
		Crashed:         s.crashed,
	}
}

// setByteGauges publishes the log/live byte gauges (mu held; oc may be
// nil).
func (s *LogStore) setByteGauges() {
	if s.oc != nil {
		s.oc.logBytes.Set(s.frameBytes)
		s.oc.liveBytes.Set(s.liveBytes)
	}
}
