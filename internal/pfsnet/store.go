package pfsnet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ObjectStore is the data server's backing store for per-file objects.
// The default is in-memory; FileStore persists objects under a
// directory, and logstore.LogStore adds crash consistency on top
// (DESIGN §14). The shared semantic contract — sparse zero-fill reads,
// negative offsets rejected, concurrent readers — is pinned by the
// internal/storetest conformance suite, which every implementation
// must pass.
type ObjectStore interface {
	// WriteAt writes data at off in the object for file, growing it as
	// needed. Negative offsets are an error.
	WriteAt(file uint64, off int64, data []byte) error
	// ReadAt fills p from the object at off; missing ranges read as
	// zeros (sparse semantics). Negative offsets are an error.
	ReadAt(file uint64, off int64, p []byte) error
	// Size returns the current object length for file.
	Size(file uint64) (int64, error)
	// Close releases resources.
	Close() error
}

// MemStore is the default in-memory object store. Reads take the lock
// shared, so concurrent server workers reading different (or the same)
// objects do not serialize.
type MemStore struct {
	mu      sync.RWMutex
	objects map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[uint64][]byte)}
}

// WriteAt implements ObjectStore.
func (s *MemStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[file]
	if end := off + int64(len(data)); int64(len(o)) < end {
		if end <= int64(cap(o)) {
			o = o[:end]
		} else {
			// Grow geometrically: objects extend one sub-request at a
			// time, and reallocating the whole object per write would
			// make appending N bytes cost O(N²) copying.
			newCap := max(end, 2*int64(cap(o)))
			grown := make([]byte, end, newCap)
			copy(grown, o)
			o = grown
		}
	}
	copy(o[off:], data)
	s.objects[file] = o
	return nil
}

// ReadAt implements ObjectStore.
func (s *MemStore) ReadAt(file uint64, off int64, p []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int
	if o := s.objects[file]; off < int64(len(o)) {
		n = copy(p, o[off:])
	}
	clear(p[n:]) // only the part past the object's end
	return nil
}

// Size implements ObjectStore.
func (s *MemStore) Size(file uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.objects[file])), nil
}

// Close implements ObjectStore.
func (s *MemStore) Close() error { return nil }

// FileStore keeps each object in a sparse file under dir — the analogue
// of PVFS2's Trove bstreams on the server-local file system. The handle
// map is read-mostly: steady-state lookups take the lock shared, so
// concurrent I/O to independent files proceeds in parallel (the reads
// and writes themselves are positional pread/pwrite, which need no
// lock at all).
//
// Crash guarantees: almost none, by design. Writes are acknowledged
// from the page cache; nothing is fsynced until Close, so a machine
// crash (or SIGKILL before Close) can lose any acknowledged write, and
// a torn page can corrupt one silently — there are no checksums and no
// recovery protocol. Close syncs every object file before closing it,
// so a clean shutdown is durable; that is the entire story. Servers
// that need crash consistency — replay to the last acknowledged write,
// torn-write detection, byte-verifiable contents after a kill — use
// internal/logstore instead (pfs-server -store=log; DESIGN §14 spells
// out the contrast).
type FileStore struct {
	dir string

	mu    sync.RWMutex
	files map[uint64]*os.File
}

// NewFileStore returns a store writing objects under dir (created if
// missing).
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, files: make(map[uint64]*os.File)}, nil
}

func (s *FileStore) handle(file uint64) (*os.File, error) {
	s.mu.RLock()
	f, ok := s.files[file]
	s.mu.RUnlock()
	if ok {
		return f, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[file]; ok { // lost an open race
		return f, nil
	}
	f, err := os.OpenFile(filepath.Join(s.dir, fmt.Sprintf("obj-%d.dat", file)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s.files[file] = f
	return f, nil
}

// WriteAt implements ObjectStore.
func (s *FileStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	f, err := s.handle(file)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, off)
	return err
}

// ReadAt implements ObjectStore.
func (s *FileStore) ReadAt(file uint64, off int64, p []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	f, err := s.handle(file)
	if err != nil {
		return err
	}
	n, err := f.ReadAt(p, off)
	if err == io.EOF || (err == nil && n == len(p)) {
		// Short read past EOF: the remainder is zeros (sparse).
		clear(p[n:])
		return nil
	}
	// A genuine I/O error must surface, not read as zeros: zero-filling
	// here would turn device trouble into silently wrong data.
	return err
}

// Size implements ObjectStore.
func (s *FileStore) Size(file uint64) (int64, error) {
	f, err := s.handle(file)
	if err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close implements ObjectStore.
func (s *FileStore) Close() error {
	type handle struct {
		id uint64
		f  *os.File
	}
	s.mu.Lock()
	hs := make([]handle, 0, len(s.files))
	for id, f := range s.files {
		hs = append(hs, handle{id, f})
	}
	clear(s.files)
	s.mu.Unlock()
	// Sync then close outside the lock (both hit the kernel) and in id
	// order, so which error wins is deterministic rather than a
	// function of map iteration order. The fsync is what makes a clean
	// shutdown durable — it is also the only fsync this store ever
	// issues (see the type comment).
	sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	var first error
	for _, h := range hs {
		if err := h.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := h.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
