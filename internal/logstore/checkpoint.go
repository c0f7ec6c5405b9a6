package logstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/extent"
)

// Checkpoint file format. The checkpoint is the serialized mapping
// table plus the replay cursor: generation, active segment, and the
// log offset the table covers. Replay resumes at that offset instead
// of the start of the log, so the checkpoint is purely an accelerator
// — a missing or corrupt one forces a full replay, never wrong data.
//
//	[8]  magic "IBLOGCK1"
//	u64  generation
//	u64  active segment sequence
//	u64  covered log offset in the active segment
//	u64  dataBytes (live + dead payload bytes across the log)
//	u64  object count
//	per object:
//	  u64  file id
//	  u64  logical size
//	  u64  extent count
//	  per extent: u64 off, u64 n, u64 seg, u64 pos, u64 gen
//	u32  crc32c over everything above
//
// Installation is atomic: the bytes go to checkpoint.tmp, that file is
// fsynced, renamed over "checkpoint", and the directory is fsynced. A
// crash at any instant leaves either the old checkpoint or the new one
// — never a readable half of each.
var ckptMagic = [8]byte{'I', 'B', 'L', 'O', 'G', 'C', 'K', '1'}

// checkpointState is a decoded checkpoint.
type checkpointState struct {
	gen       uint64
	seg       uint64
	off       int64
	dataBytes int64
	objects   map[uint64]*object
	liveBytes int64
}

func putU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// encodeCheckpointLocked serializes the mapping table (mu held).
// Objects and their extents are written in sorted order so the bytes —
// and the CRC — are a pure function of the store state.
func (s *LogStore) encodeCheckpointLocked() []byte {
	ids := make([]uint64, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, 8+5*8+len(ids)*3*8)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, s.gen)
	buf = binary.BigEndian.AppendUint64(buf, s.active)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.tail))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.dataBytes))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(ids)))
	for _, id := range ids {
		o := s.objects[id]
		buf = binary.BigEndian.AppendUint64(buf, id)
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.size))
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.ext.Len()))
		for _, e := range o.ext.Extents() {
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Off))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.N))
			buf = binary.BigEndian.AppendUint64(buf, e.Val.seg)
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Val.pos))
			buf = binary.BigEndian.AppendUint64(buf, e.Val.gen)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// checkpointLocked installs a checkpoint of the current state (mu
// held): write to the staging file, fsync, rename into place, fsync
// the directory.
func (s *LogStore) checkpointLocked() error {
	start := time.Now()
	buf := s.encodeCheckpointLocked()
	tmp := filepath.Join(s.dir, ckptTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, ckptName)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.sinceCkpt = 0
	s.st.checkpoints++
	if s.oc != nil {
		s.oc.checkpoints.Inc()
	}
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.checkpoint", s.cfg.Scope, start, time.Since(start))
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadCheckpoint reads and validates the checkpoint at path. ok is
// false — and the caller falls back to a full replay — when the file
// is missing, truncated, fails its CRC, or is structurally
// inconsistent. It never panics on arbitrary bytes (the malformed-
// checkpoint table test pins this).
func loadCheckpoint(path string) (ck checkpointState, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return ck, false
	}
	if len(buf) < 8+5*8+4 || [8]byte(buf[:8]) != ckptMagic {
		return ck, false
	}
	body, trailer := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return ck, false
	}
	r := body[8:]
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v
	}
	ck.gen = u64()
	ck.seg = u64()
	ck.off = int64(u64())
	ck.dataBytes = int64(u64())
	n := u64()
	if ck.off < segHeaderLen || ck.dataBytes < 0 || n > uint64(len(r))/(3*8) {
		return checkpointState{}, false
	}
	ck.objects = make(map[uint64]*object, n)
	for range n {
		if len(r) < 3*8 {
			return checkpointState{}, false
		}
		id := u64()
		size := int64(u64())
		nExt := u64()
		if size < 0 || nExt > uint64(len(r))/(5*8) {
			return checkpointState{}, false
		}
		o := &object{size: size}
		for range nExt {
			e := extent.Extent[loc]{Off: int64(u64()), N: int64(u64())}
			e.Val = loc{seg: u64(), pos: int64(u64()), gen: u64()}
			if e.Val.pos < segHeaderLen || e.End() > size || !o.ext.Append(e) {
				return checkpointState{}, false
			}
			ck.liveBytes += e.N
		}
		if _, dup := ck.objects[id]; dup {
			return checkpointState{}, false
		}
		ck.objects[id] = o
	}
	if len(r) != 0 {
		return checkpointState{}, false
	}
	return ck, true
}
