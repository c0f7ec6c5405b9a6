// Package plfs implements a miniature PLFS (Bent et al., SC'09), the
// log-structured checkpoint file system the paper's related work compares
// against: every rank's writes to a shared logical file are appended to a
// per-rank log object, with an index mapping logical extents to log
// positions. Writes become perfectly sequential regardless of alignment —
// the software answer to the fragment problem — but reads of the logical
// file scatter across the rank logs, losing the spatial locality iBridge
// preserves ("this approach may not be effective for regular workloads,
// as spatial locality is largely lost in the log file system").
//
// The implementation layers on the simulated parallel file system: each
// rank log is a pfs file, so log appends stripe over the data servers
// like PLFS data droppings do.
package plfs

import (
	"fmt"
	"sort"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// Mount is one PLFS container: a logical file backed by per-rank logs.
type Mount struct {
	fs     *pfs.FileSystem
	client *pfs.Client
	name   string
	size   int64
	ranks  int

	logs    []*pfs.File
	logPos  []int64
	index   []indexEntry // sorted by logical offset, non-overlapping
	entries int64
}

// indexEntry maps a logical extent to a position in one rank's log.
type indexEntry struct {
	off    int64 // logical offset
	length int64
	rank   int
	logOff int64
}

func (e indexEntry) end() int64 { return e.off + e.length }

// Create builds a PLFS container of the given logical size for ranks
// writers. Each rank log is provisioned with capacity/ranks plus slack
// (PLFS logs grow with rewrites; the benchmarks write each byte once).
func Create(fs *pfs.FileSystem, name string, size int64, ranks int) (*Mount, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("plfs: ranks must be positive")
	}
	m := &Mount{
		fs:     fs,
		client: pfs.NewClient(fs),
		name:   name,
		size:   size,
		ranks:  ranks,
		logPos: make([]int64, ranks),
	}
	perLog := size/int64(ranks) + size/4 + (64 << 10)
	for r := 0; r < ranks; r++ {
		f, err := fs.Create(fmt.Sprintf("%s.plfs.log.%d", name, r), perLog)
		if err != nil {
			return nil, err
		}
		m.logs = append(m.logs, f)
	}
	return m, nil
}

// Size returns the logical file size.
func (m *Mount) Size() int64 { return m.size }

// IndexEntries returns the number of live index entries (the metadata
// cost PLFS pays; the paper's criticism includes index growth).
func (m *Mount) IndexEntries() int { return len(m.index) }

// WriteAt appends a write by rank at logical offset off to the rank's
// log and records the index entry. The log append is sequential no matter
// how unaligned the logical write is — PLFS's whole point.
func (m *Mount) WriteAt(p *sim.Proc, rank int, off, length int64) error {
	if rank < 0 || rank >= m.ranks {
		return fmt.Errorf("plfs: rank %d out of range", rank)
	}
	if off < 0 || off+length > m.size {
		return fmt.Errorf("plfs: write [%d,+%d) outside logical size %d", off, length, m.size)
	}
	if length == 0 {
		return nil
	}
	logOff := m.logPos[rank]
	if logOff+length > m.logs[rank].Size {
		return fmt.Errorf("plfs: rank %d log full", rank)
	}
	m.client.WithOrigin(int32(rank+1)).Write(p, m.logs[rank], logOff, length)
	m.logPos[rank] += length
	m.insert(indexEntry{off: off, length: length, rank: rank, logOff: logOff})
	m.entries++
	return nil
}

// insert punches the logical range out of the index and adds the entry,
// keeping the index sorted and non-overlapping (later writes win).
func (m *Mount) insert(e indexEntry) {
	m.punch(e.off, e.length)
	i := sort.Search(len(m.index), func(i int) bool { return m.index[i].off > e.off })
	m.index = append(m.index, indexEntry{})
	copy(m.index[i+1:], m.index[i:])
	m.index[i] = e
}

// punch removes [off, off+n) from the index, splitting entries that
// partially overlap.
func (m *Mount) punch(off, n int64) {
	end := off + n
	var out []indexEntry
	for _, e := range m.index {
		if e.end() <= off || e.off >= end {
			out = append(out, e)
			continue
		}
		if e.off < off {
			out = append(out, indexEntry{off: e.off, length: off - e.off, rank: e.rank, logOff: e.logOff})
		}
		if e.end() > end {
			cut := end - e.off
			out = append(out, indexEntry{off: end, length: e.end() - end, rank: e.rank, logOff: e.logOff + cut})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	m.index = out
}

// ReadAt reads the logical extent [off, off+length): the index resolves
// it into (possibly many) log pieces, each read from its rank log.
// Unwritten gaps read as zeros (they cost no I/O). Returns the number of
// log pieces touched — the locality loss the paper points at.
func (m *Mount) ReadAt(p *sim.Proc, off, length int64) (pieces int, err error) {
	if off < 0 || off+length > m.size {
		return 0, fmt.Errorf("plfs: read [%d,+%d) outside logical size %d", off, length, m.size)
	}
	i := sort.Search(len(m.index), func(i int) bool { return m.index[i].end() > off })
	end := off + length
	for ; i < len(m.index) && m.index[i].off < end; i++ {
		e := m.index[i]
		from := max(e.off, off)
		to := min(e.end(), end)
		m.client.Read(p, m.logs[e.rank], e.logOff+(from-e.off), to-from)
		pieces++
	}
	return pieces, nil
}
