package core

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Bridge is one data server's iBridge storage stack: a hard disk behind a
// merging elevator, an SSD behind a Noop queue, the return-value model,
// and the SSD cache. It implements pfs.Store.
type Bridge struct {
	e      *sim.Engine
	cfg    Config
	server int

	diskQ *iosched.Queue
	disk  *hdd.Disk
	ssdQ  *iosched.Queue

	trk  *tracker
	exch *Exchange

	table extentMap
	lru   [2]lruList
	usage [2]int64 // cached sectors per class
	// Running sums of recorded return values over cached entries, for
	// the dynamic partition (averages per class).
	retSum [2]float64
	retCnt [2]int64
	alloc  *logAlloc

	stage []stageItem

	journal journal

	// ssdFailed latches after an injected SSD-device failure: the cache
	// is drained and dropped once, and every later request takes the
	// disk path — graceful degradation, never data loss.
	ssdFailed bool

	stats Stats

	// Observability sinks; all nil when disabled, so the hot path pays
	// one branch per decision point.
	m     *obs.BridgeMetrics
	tr    *obs.XTracer
	scope string // trace lane, "run<N>/bridge<id>"
}

// SetObs installs the observability sinks (either may be nil). run
// labels the cluster instance in trace output. Call before the
// simulation runs.
func (b *Bridge) SetObs(m *obs.BridgeMetrics, tr *obs.XTracer, run int32) {
	b.m = m
	b.tr = tr
	b.scope = fmt.Sprintf("run%d/bridge%d", run, b.server)
}

type stageItem struct {
	lbn     int64
	sectors int64
	ret     float64
	class   Class
}

// capSectors converts the configured capacity to sectors.
func (b *Bridge) capSectors() int64 { return b.cfg.SSDCapacity / device.SectorSize }

// NewBridge assembles an iBridge stack for one data server. serverID must
// be the pfs server index; exch may be nil for a standalone bridge (no
// magnification data). diskQ must wrap disk; ssdQ must wrap the SSD.
func NewBridge(e *sim.Engine, cfg Config, serverID int, disk *hdd.Disk, diskQ, ssdQ *iosched.Queue, exch *Exchange, rng *sim.RNG) *Bridge {
	if cfg.EWMAOld+cfg.EWMANew == 0 {
		panic("core: zero EWMA weights")
	}
	b := &Bridge{
		e:      e,
		cfg:    cfg,
		server: serverID,
		diskQ:  diskQ,
		disk:   disk,
		ssdQ:   ssdQ,
		trk:    newTracker(disk, cfg.EWMAOld, cfg.EWMANew),
		exch:   exch,
		alloc:  newLogAlloc(cfg.SSDCapacity/device.SectorSize, cfg.LogStructured, rng),
	}
	if exch != nil {
		exch.Register(b)
	}
	e.Go(fmt.Sprintf("ibridge-maint:srv%d", serverID), b.maintain)
	return b
}

// T returns the bridge's current decayed average disk service time.
func (b *Bridge) T() float64 { return b.trk.T() }

// Stats returns the bridge's statistics.
func (b *Bridge) Stats() *Stats { return &b.stats }

// Usage returns the cache occupancy in bytes per class.
func (b *Bridge) Usage() (random, fragment int64) {
	return b.usage[ClassRandom] * device.SectorSize, b.usage[ClassFragment] * device.SectorSize
}

// allocFor returns the partition size in sectors for the given class:
// proportional to the classes' average recorded returns when dynamic
// (with a 10% floor each), or the static split.
func (b *Bridge) allocFor(c Class) int64 {
	total := b.capSectors()
	fragShare := b.cfg.StaticFragShare
	if b.cfg.DynamicPartition {
		avg := [2]float64{}
		for i := range avg {
			if b.retCnt[i] > 0 {
				avg[i] = b.retSum[i] / float64(b.retCnt[i])
			}
		}
		switch {
		case avg[0]+avg[1] <= 0:
			fragShare = 0.5
		default:
			fragShare = avg[ClassFragment] / (avg[ClassRandom] + avg[ClassFragment])
		}
		if fragShare < 0.1 {
			fragShare = 0.1
		}
		if fragShare > 0.9 {
			fragShare = 0.9
		}
	}
	if c == ClassFragment {
		return int64(float64(total) * fragShare)
	}
	return int64(float64(total) * (1 - fragShare))
}

// classify returns the cache class of a redirectable request.
func classify(r *pfs.IORequest) Class {
	if r.Fragment {
		return ClassFragment
	}
	return ClassRandom
}

// evalReturn computes T_ret (or T_ret_frag for fragments) in seconds for
// request r arriving now, alongside the Eq. (3) magnification component
// of it (0 when this server is not the parent's bottleneck).
func (b *Bridge) evalReturn(r *pfs.IORequest) (ret, boost float64) {
	req := r.Request()
	ret = b.trk.hypothetical(req) - b.trk.T()
	if r.Fragment && b.cfg.Magnification && b.exch != nil {
		boost = magnification(b.trk.T(), b.server, r.Siblings, b.exch.View())
		ret += boost
	}
	return ret, boost
}

// countOffload records one committed positive-return redirect, split by
// whether the Eq. (3) boost contributed.
func (b *Bridge) countOffload(ret, boost float64) {
	if boost > 0 {
		b.stats.BoostedOffloads++
	} else {
		b.stats.PlainOffloads++
	}
	if b.m != nil {
		if boost > 0 {
			b.m.BoostedOffloads.Inc()
		} else {
			b.m.PlainOffloads.Inc()
		}
		b.m.Return.Observe(ret * 1e3)
	}
}

// Serve implements pfs.Store.
func (b *Bridge) Serve(p *sim.Proc, r *pfs.IORequest) {
	if r.Op == device.Read {
		b.serveRead(p, r)
	} else {
		b.serveWrite(p, r)
	}
}

func (b *Bridge) serveRead(p *sim.Proc, r *pfs.IORequest) {
	// Cache lookup: fully covered reads are served from the SSD.
	if segs, ok := b.table.covered(r.LBN, r.Sectors); ok && !b.ssdFailed {
		for _, s := range segs {
			b.ssdQ.Submit(p, device.Request{Op: device.Read, LBN: s.ssdLBN, Sectors: s.n})
			b.lru[s.e.class].touch(s.e)
		}
		b.stats.Hits++
		b.stats.SSDReadBytes += r.Bytes
		b.trk.servedAtSSD()
		if b.m != nil {
			b.m.Hits.Inc()
		}
		if b.tr != nil {
			b.tr.Instant(uint64(r.ID), 0, "ssd-hit", b.scope, time.Unix(0, int64(p.Now())))
		}
		return
	}
	b.stats.Misses++
	if b.m != nil {
		b.m.Misses.Inc()
	}
	// Any dirty cached pieces must come from the SSD even on a miss.
	for _, s := range b.table.dirtyOverlaps(r.LBN, r.Sectors) {
		b.ssdQ.Submit(p, device.Request{Op: device.Read, LBN: s.ssdLBN, Sectors: s.n})
	}
	candidate := (r.Fragment || r.Random) && !b.ssdFailed
	var ret, boost float64
	if candidate {
		ret, boost = b.evalReturn(r)
	}
	req := r.Request()
	b.diskQ.Submit(p, req)
	b.trk.servedAtDisk(req)
	b.stats.DiskReadBytes += r.Bytes
	if b.tr != nil {
		b.tr.Instant(uint64(r.ID), 0, "disk-read", b.scope, time.Unix(0, int64(p.Now())))
	}
	// The data is now in memory; if redirecting it would have paid off,
	// stage it into the SSD during the next idle period so future runs
	// hit (Section II-B's read path).
	if candidate && ret > 0 && len(b.stage) < b.cfg.StageQueueMax {
		b.stage = append(b.stage, stageItem{lbn: r.LBN, sectors: r.Sectors, ret: ret, class: classify(r)})
		b.countOffload(ret, boost)
		if b.tr != nil {
			b.tr.Instant(uint64(r.ID), 0, "stage-queued", b.scope, time.Unix(0, int64(p.Now())))
		}
	}
}

func (b *Bridge) serveWrite(p *sim.Proc, r *pfs.IORequest) {
	candidate := (r.Fragment || r.Random) && !b.ssdFailed
	if candidate {
		if ret, boost := b.evalReturn(r); ret > 0 {
			if b.writeToSSD(p, r, ret, classify(r)) {
				b.trk.servedAtSSD()
				b.stats.SSDWriteBytes += r.Bytes
				b.countOffload(ret, boost)
				if b.tr != nil {
					name := "ssd-offload"
					if boost > 0 {
						name = "ssd-offload-boosted"
					}
					b.tr.Instant(uint64(r.ID), 0, name, b.scope, time.Unix(0, int64(p.Now())))
				}
				return
			}
			b.stats.Rejections++
			if b.m != nil {
				b.m.Rejections.Inc()
			}
			if b.tr != nil {
				b.tr.Instant(uint64(r.ID), 0, "ssd-reject", b.scope, time.Unix(0, int64(p.Now())))
			}
		}
	}
	// Disk path: anything cached for this range is now stale.
	b.invalidate(r.LBN, r.Sectors)
	req := r.Request()
	b.diskQ.Submit(p, req)
	b.trk.servedAtDisk(req)
	b.stats.DiskWriteBytes += r.Bytes
	if b.tr != nil {
		b.tr.Instant(uint64(r.ID), 0, "disk-write", b.scope, time.Unix(0, int64(p.Now())))
	}
}

// writeToSSD admits a write into the cache: evicts within the class
// partition, appends to the SSD log, and records the mapping. Returns
// false if space cannot be made.
func (b *Bridge) writeToSSD(p *sim.Proc, r *pfs.IORequest, ret float64, c Class) bool {
	need := r.Sectors
	if b.cfg.TablePersist {
		need++ // journalled mapping-table record rides along
	}
	if !b.makeRoom(p, c, need) {
		return false
	}
	// Overwritten cached data is superseded.
	b.invalidate(r.LBN, r.Sectors)
	at, ok := b.alloc.alloc(need)
	if !ok {
		return false
	}
	b.ssdQ.Submit(p, device.Request{Op: device.Write, LBN: at, Sectors: need})
	// The mapping covers the data sectors only; the journalled table
	// record (if any) is allocator overhead owned by the entry's span.
	e := &entry{lbn: r.LBN, sectors: r.Sectors, ssdLBN: at, dirty: true, class: c, ret: ret}
	e.spanAt, e.spanN = at, need
	b.admit(e)
	return true
}

// admit links a fully initialized entry into the table, LRU list, and
// accounting, journalling the mapping (the paper's immediate table
// persistence).
func (b *Bridge) admit(e *entry) {
	b.journal.insert(e)
	b.table.insert(e)
	b.lru[e.class].pushMRU(e)
	b.usage[e.class] += e.sectors
	b.retSum[e.class] += e.ret
	b.retCnt[e.class]++
	b.stats.Admissions[e.class]++
	u := (b.usage[0] + b.usage[1]) * device.SectorSize
	if u > b.stats.PeakUsage {
		b.stats.PeakUsage = u
	}
	if b.m != nil {
		b.m.Occupancy.Set(u)
	}
}

// makeRoom evicts LRU entries of class c until need sectors fit within
// the class partition. Dirty victims are written back first.
func (b *Bridge) makeRoom(p *sim.Proc, c Class, need int64) bool {
	limit := b.allocFor(c)
	if need > limit {
		return false
	}
	for b.usage[c]+need > limit {
		victim := b.lru[c].head
		if victim == nil {
			return false
		}
		if victim.dirty {
			b.writebackEntry(p, victim)
		}
		b.dropEntry(victim)
		b.stats.Evictions++
		if b.m != nil {
			b.m.Evictions.Inc()
		}
	}
	return true
}

// invalidate punches [lbn, lbn+sectors) out of the cache, dropping
// superseded data without writeback.
func (b *Bridge) invalidate(lbn, sectors int64) {
	// Only journal drops that touch existing mappings.
	if lo, hi := b.table.overlapRange(lbn, sectors); hi > lo {
		b.journal.drop(lbn, sectors)
	}
	out := b.table.punch(lbn, sectors, func(e *entry) {
		// A split created a new right-hand entry: link it and account
		// for it. Its span bookkeeping stays with the original entry's
		// allocator span, so mark it spanless.
		b.lru[e.class].pushMRU(e)
		b.usage[e.class] += e.sectors
		b.retSum[e.class] += e.ret
		b.retCnt[e.class]++
	})
	for _, e := range out.removed {
		b.lru[e.class].remove(e)
		b.usage[e.class] -= e.sectors
		b.retSum[e.class] -= e.ret
		b.retCnt[e.class]--
		if e.spanN > 0 {
			b.alloc.release(e.spanAt, e.spanN)
			e.spanN = 0
		}
	}
	for cls, n := range out.freedSectors {
		b.usage[cls] -= n
	}
	// Note: trimmed portions of surviving entries keep their allocator
	// span until the whole entry is dropped; the usage counters above
	// govern partition pressure.
}

// dropEntry removes e from the table, LRU, and accounting, releasing its
// allocator span.
func (b *Bridge) dropEntry(e *entry) {
	b.journal.drop(e.lbn, e.sectors)
	if i := b.table.indexOf(e); i >= 0 {
		b.table.removeAt(i)
	}
	b.lru[e.class].remove(e)
	b.usage[e.class] -= e.sectors
	b.retSum[e.class] -= e.ret
	b.retCnt[e.class]--
	if e.spanN > 0 {
		b.alloc.release(e.spanAt, e.spanN)
		e.spanN = 0
	}
}

// writebackEntry copies one dirty extent from the SSD back to the disk
// (SSD read + disk write) and marks it clean. Writeback traffic does not
// update the tracker: the paper's T averages over requests *arriving* at
// the server, not the internal cache maintenance.
func (b *Bridge) writebackEntry(p *sim.Proc, e *entry) {
	b.ssdQ.Submit(p, device.Request{Op: device.Read, LBN: e.ssdLBN, Sectors: e.sectors})
	b.diskQ.Submit(p, device.Request{Op: device.Write, LBN: e.lbn, Sectors: e.sectors})
	e.dirty = false
	b.journal.clean(e)
	b.stats.WritebackBytes += e.sectors * device.SectorSize
	if b.m != nil {
		b.m.Writebacks.Inc()
	}
}

// idle reports whether both devices have been quiet long enough for
// background work.
func (b *Bridge) idle(now sim.Time) bool {
	quiet := now.Add(-b.cfg.IdleAfter)
	return b.diskQ.Pending() == 0 && b.ssdQ.Pending() == 0 &&
		b.disk.IdleSince() <= quiet
}

// maintain is the background daemon: during idle device periods it first
// stages queued read data into the SSD, then writes dirty data back to
// the disk in LBN order (long sequential runs).
func (b *Bridge) maintain(p *sim.Proc) {
	for {
		p.Sleep(b.cfg.IdleCheck)
		if b.ssdFailed {
			continue // no cache left to maintain
		}
		// Stage queued read data while the devices stay quiet.
		for len(b.stage) > 0 && b.idle(p.Now()) {
			it := b.stage[0]
			b.stage = b.stage[1:]
			b.stageOne(p, it)
		}
		if !b.idle(p.Now()) {
			continue
		}
		// Write back only under dirty pressure; otherwise dirty data
		// waits for eviction pressure or the final flush.
		if float64(b.DirtySectors()) >= b.cfg.WritebackMinDirty*float64(b.capSectors()) {
			b.writebackPass(p, b.cfg.WritebackBatch)
		}
	}
}

// stageOne admits one read-staged extent into the cache as clean data.
func (b *Bridge) stageOne(p *sim.Proc, it stageItem) {
	if _, ok := b.table.covered(it.lbn, it.sectors); ok {
		return // already cached meanwhile
	}
	need := it.sectors
	if b.cfg.TablePersist {
		need++
	}
	if !b.makeRoom(p, it.class, need) {
		return
	}
	b.invalidate(it.lbn, it.sectors)
	at, ok := b.alloc.alloc(need)
	if !ok {
		return
	}
	b.ssdQ.Submit(p, device.Request{Op: device.Write, LBN: at, Sectors: need})
	e := &entry{lbn: it.lbn, sectors: it.sectors, ssdLBN: at, class: it.class, ret: it.ret}
	e.spanAt, e.spanN = at, need
	b.admit(e)
	b.stats.StagedBytes += it.sectors * device.SectorSize
	if b.m != nil {
		b.m.Stages.Inc()
	}
	if b.tr != nil {
		b.tr.Instant(0, 0, "staged", b.scope, time.Unix(0, int64(p.Now())))
	}
}

// writebackPass writes back up to batch dirty extents in ascending LBN
// order, forming sequential disk runs. It yields as soon as foreground
// requests arrive so cache maintenance never blocks application I/O.
// Returns the number written back.
func (b *Bridge) writebackPass(p *sim.Proc, batch int) int {
	n := 0
	for n < batch {
		var victim *entry
		for _, e := range b.table.entries {
			if e.dirty {
				victim = e
				break
			}
		}
		if victim == nil {
			return n
		}
		b.writebackEntry(p, victim)
		n++
		if b.diskQ.Pending() > 0 || b.ssdQ.Pending() > 0 {
			return n // foreground traffic arrived: yield
		}
	}
	return n
}

// Flush implements pfs.Store: write back all dirty cached data. The
// paper includes this in measured execution time.
func (b *Bridge) Flush(p *sim.Proc) {
	for {
		if b.writebackPass(p, 1<<30) == 0 {
			return
		}
	}
}

// FailSSD simulates an SSD-device failure at the current simulated time:
// dirty data is written back once (a controlled firmware degrade, not
// torn metadata), every mapping is dropped, staged work is discarded,
// and from then on the bridge serves everything from the disk. Eq. (2)'s
// observation that the SSD leaves the disk's T unchanged is what makes
// this a clean fallback: the cluster loses the acceleration, never the
// bytes.
func (b *Bridge) FailSSD(p *sim.Proc) {
	if b.ssdFailed {
		return
	}
	b.Flush(p)
	for len(b.table.entries) > 0 {
		b.dropEntry(b.table.entries[0])
	}
	b.stage = b.stage[:0]
	b.ssdFailed = true
	b.stats.SSDFailures++
	if b.tr != nil {
		b.tr.Instant(0, 0, "ssd-failed", b.scope, time.Unix(0, int64(p.Now())))
	}
}

// SSDFailed reports whether this bridge's SSD device has failed.
func (b *Bridge) SSDFailed() bool { return b.ssdFailed }

// DirtySectors returns the number of dirty cached sectors (for tests).
func (b *Bridge) DirtySectors() int64 {
	var n int64
	for _, e := range b.table.entries {
		if e.dirty {
			n += e.sectors
		}
	}
	return n
}

var _ pfs.Store = (*Bridge)(nil)
