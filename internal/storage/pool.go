package storage

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Pool is the fixed-capacity buffer pool shared by every spillable table of
// a catalog. It caches heap pages in a fixed set of PageSize frames with
// pin/unpin reference counts and CLOCK second-chance eviction, partitioned
// into shards so concurrent fetches contend only within their shard.
//
// Sharding: a page's (heap, page-number) tag hashes to one shard, each with
// its own mutex, frame set, page→frame map, and CLOCK hand. A fetch touches
// exactly one shard mutex, so misses on different shards — and all hits —
// proceed in parallel.
//
// Per-frame I/O latches: a miss claims a victim frame, installs it in the
// map as "loading", RELEASES the shard mutex, performs the disk read outside
// any lock, then publishes the result through the frame's load latch.
// Concurrent fetchers of the same page find the loading frame, pin it (so it
// cannot be evicted from under them), and wait on the latch — exactly one
// disk read per page, however many fetchers race for it (singleflight).
// Fetches of other pages on the same shard only overlap with the map
// bookkeeping, never with the read itself. Dirty-victim writeback still
// happens under the shard mutex: eviction is rare after a checkpoint flush,
// and keeping it locked makes the claim/revert protocol trivial.
//
// Page BYTES need no lock of their own: a frame's contents are written only
// while the frame is claimed (loading, or adopt under the shard mutex), and
// once published a page is a sealed — immutable — heap page, so any number
// of pinned readers may decode it concurrently while every mutex is free.
//
// ErrPoolExhausted is the typed no-deadlock guarantee: when every frame of
// the target shard is pinned, fetch fails immediately instead of waiting for
// an unpin that the caller itself might owe. (With sharding the guarantee is
// per shard; callers degrade to unbuffered I/O exactly as before.)

// ErrPoolExhausted is returned by a page fetch that found every frame of the
// page's shard pinned. Callers either surface it or fall back to an
// unbuffered read (heapFile.load does the latter, so table reads degrade
// instead of failing).
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// pageTag identifies a cached page: which heap, which page number.
type pageTag struct {
	h  *heapFile
	no uint32
}

// loadLatch publishes the outcome of one in-flight disk read. Waiters block
// on done; err is valid once done is closed (the close gives the usual
// happens-before edge, so waiters also see the frame bytes the loader wrote).
type loadLatch struct {
	done chan struct{}
	err  error
}

type frame struct {
	shard  *poolShard
	tag    pageTag
	buf    []byte
	pins   int  // readers currently holding the frame; >0 blocks eviction
	refbit bool // CLOCK second-chance bit, set on unpin
	dirty  bool // contents newer than disk; written back on evict/flush
	inUse  bool

	// loading marks a frame whose disk read is in flight: it is mapped (so
	// later fetchers of the page find it) but its bytes are not yet valid.
	// The loader holds one pin for the duration, so a loading frame is never
	// a CLOCK victim. latch is non-nil exactly while loading.
	loading bool
	latch   *loadLatch

	// dead marks a frame whose page was invalidated (heap dropped, page
	// reclaimed, or load failed) while still pinned: the mapping is gone,
	// the frame must NEVER be written back, and the last unpin frees it.
	// Pinned readers of a dropped heap keep decoding the (still valid,
	// immutable) bytes until then.
	dead bool
}

type poolShard struct {
	mu     sync.Mutex
	frames []frame
	idx    map[pageTag]int
	hand   int // CLOCK hand

	hits, misses, evictions, writebacks, loadWaits uint64
}

// Pool implements the sharded buffer pool. The zero value is not usable;
// NewPool or NewPoolShards.
type Pool struct {
	shards []*poolShard
	pages  int
}

// defaultPoolShards picks the shard count for a pool of the given frame
// budget: enough shards to spread concurrent misses across cores, but at
// least 8 frames per shard so tiny pools keep meaningful CLOCK behaviour
// (a 2-frame test pool stays a single shard with the classic semantics).
func defaultPoolShards(pages int) int {
	n := runtime.GOMAXPROCS(0)
	if m := pages / 8; m < n {
		n = m
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewPool returns a pool of the given number of PageSize frames (minimum 1)
// with an automatically chosen shard count.
func NewPool(pages int) *Pool { return NewPoolShards(pages, 0) }

// NewPoolShards returns a pool of the given number of PageSize frames split
// across the given number of shards. shards <= 0 selects the default
// (min(GOMAXPROCS, pages/8), at least 1); shards above the frame count are
// clamped so every shard owns at least one frame.
func NewPoolShards(pages, shards int) *Pool {
	if pages < 1 {
		pages = 1
	}
	if shards <= 0 {
		shards = defaultPoolShards(pages)
	}
	if shards > pages {
		shards = pages
	}
	p := &Pool{shards: make([]*poolShard, shards), pages: pages}
	for si := range p.shards {
		n := pages / shards
		if si < pages%shards {
			n++
		}
		s := &poolShard{frames: make([]frame, n), idx: make(map[pageTag]int, n)}
		for i := range s.frames {
			s.frames[i].shard = s
			s.frames[i].buf = make([]byte, PageSize)
		}
		p.shards[si] = s
	}
	return p
}

// shardOf maps a page tag to its shard: a multiplicative hash of the heap's
// id and the page number, so one hot table still spreads across shards.
func (p *Pool) shardOf(tag pageTag) *poolShard {
	x := tag.h.id*0x9e3779b97f4a7c15 + uint64(tag.no)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	return p.shards[x%uint64(len(p.shards))]
}

// victimLocked runs the shard's CLOCK sweep: skip pinned frames (which
// includes every loading frame — the loader's pin protects it), give
// referenced frames a second chance, take the first unreferenced one (free
// frames win immediately). Two full sweeps without a victim means every
// frame is pinned. A dirty victim is written back before reuse. Caller
// holds s.mu.
func (s *poolShard) victimLocked() (int, error) {
	for spins := 0; spins < 2*len(s.frames); spins++ {
		i := s.hand
		s.hand = (s.hand + 1) % len(s.frames)
		f := &s.frames[i]
		if !f.inUse {
			return i, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		if f.dirty {
			if err := f.tag.h.writePage(f.tag.no, f.buf); err != nil {
				return 0, fmt.Errorf("storage: buffer pool writeback of %s page %d: %w", f.tag.h.name, f.tag.no, err)
			}
			s.writebacks++
		}
		delete(s.idx, f.tag)
		f.inUse = false
		f.dirty = false
		s.evictions++
		return i, nil
	}
	return 0, ErrPoolExhausted
}

// freeLocked returns a frame to the unused state. The caller has already
// removed any map entry. Caller holds the frame's shard mutex.
func (s *poolShard) freeLocked(f *frame) {
	f.inUse = false
	f.dirty = false
	f.dead = false
	f.refbit = false
	f.loading = false
	f.latch = nil
}

// fetch returns a pinned frame holding the page, reading it from disk on a
// miss. The caller must unpin it when done decoding. Concurrent fetchers of
// the same absent page share one disk read (see the type comment).
func (p *Pool) fetch(h *heapFile, no uint32) (*frame, error) {
	tag := pageTag{h: h, no: no}
	s := p.shardOf(tag)
	s.mu.Lock()
	if i, ok := s.idx[tag]; ok {
		f := &s.frames[i]
		if !f.loading {
			s.hits++
			f.pins++
			s.mu.Unlock()
			return f, nil
		}
		// Another fetcher's read is in flight: pin the frame (blocks
		// eviction/recycling) and wait on its latch outside the mutex.
		s.loadWaits++
		f.pins++
		latch := f.latch
		s.mu.Unlock()
		<-latch.done
		if latch.err == nil {
			return f, nil // keep the pin taken above
		}
		s.mu.Lock()
		f.pins--
		if f.dead && f.pins == 0 {
			s.freeLocked(f)
		}
		s.mu.Unlock()
		return nil, latch.err
	}

	// Miss: claim a victim, publish it as loading, and read outside the lock.
	s.misses++
	i, err := s.victimLocked()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	f := &s.frames[i]
	latch := &loadLatch{done: make(chan struct{})}
	f.tag = tag
	f.inUse = true
	f.loading = true
	f.latch = latch
	f.dead = false
	f.dirty = false
	f.refbit = false
	f.pins = 1 // the loader's own pin
	s.idx[tag] = i
	s.mu.Unlock()

	rerr := h.readPage(no, f.buf)

	s.mu.Lock()
	f.loading = false
	f.latch = nil
	if rerr != nil {
		rerr = fmt.Errorf("storage: buffer pool read of %s page %d: %w", h.name, no, rerr)
		if j, ok := s.idx[tag]; ok && j == i {
			delete(s.idx, tag)
		}
		f.pins--
		if f.pins == 0 {
			s.freeLocked(f)
		} else {
			f.dead = true // waiters still pin it; last unpin frees
		}
		latch.err = rerr
		s.mu.Unlock()
		close(latch.done)
		return nil, rerr
	}
	// The mapping may have been removed while we read (invalidate or
	// discardPage racing the load): the frame is then dead, but its bytes
	// are a valid copy of the page, so this fetch — and every waiter — still
	// succeeds; the last unpin frees the frame.
	s.mu.Unlock()
	close(latch.done)
	return f, nil
}

// unpin releases one pin taken by fetch. Dead frames are freed on their last
// unpin; live ones are marked recently used.
func (p *Pool) unpin(f *frame) {
	s := f.shard
	s.mu.Lock()
	f.pins--
	if f.dead {
		if f.pins == 0 {
			s.freeLocked(f)
		}
	} else {
		f.refbit = true
	}
	s.mu.Unlock()
}

// adopt installs a just-sealed tail page into the pool as a resident dirty
// frame, deferring its disk write to eviction or the next checkpoint flush.
// On ErrPoolExhausted the caller writes the page to disk directly instead.
// The copy happens under the shard mutex: sealing is rare (once per page of
// inserts) and the frame must not be observable half-filled.
func (p *Pool) adopt(h *heapFile, no uint32, data []byte) error {
	tag := pageTag{h: h, no: no}
	s := p.shardOf(tag)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[tag]; ok {
		// A sealed page is adopted exactly once (reclaimed pages are
		// discarded from the pool before reuse); a duplicate means heap
		// bookkeeping broke.
		return fmt.Errorf("storage: page %d of %s already resident", no, h.name)
	}
	i, err := s.victimLocked()
	if err != nil {
		return err
	}
	f := &s.frames[i]
	copy(f.buf, data)
	f.tag = tag
	f.inUse = true
	f.pins = 0
	f.refbit = true
	f.dirty = true
	s.idx[tag] = i
	return nil
}

// discardPage drops any resident copy of one page without writeback — the
// reclamation hook: a freed heap page about to be reused by the tail
// allocator must not leave a stale frame behind. A pinned or loading frame
// (possible only in pathological races; the readers gate drains real
// readers first) is marked dead and freed on its last unpin.
func (p *Pool) discardPage(h *heapFile, no uint32) {
	tag := pageTag{h: h, no: no}
	s := p.shardOf(tag)
	s.mu.Lock()
	if i, ok := s.idx[tag]; ok {
		f := &s.frames[i]
		delete(s.idx, tag)
		f.dirty = false
		if f.pins == 0 && !f.loading {
			s.freeLocked(f)
		} else {
			f.dead = true
		}
	}
	s.mu.Unlock()
}

// FlushDirty writes every dirty frame back to its heap file — the
// checkpoint hook: after a flush, eviction is pure frame recycling until new
// writes dirty pages again. Pinned frames are flushed too (their bytes are
// immutable sealed pages; pins only protect residency). Loading and dead
// frames have nothing to flush.
func (p *Pool) FlushDirty() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if !f.inUse || !f.dirty || f.loading || f.dead {
				continue
			}
			if err := f.tag.h.writePage(f.tag.no, f.buf); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("storage: checkpoint writeback of %s page %d: %w", f.tag.h.name, f.tag.no, err)
			}
			f.dirty = false
			s.writebacks++
		}
		s.mu.Unlock()
	}
	return nil
}

// invalidate drops every resident page of h without writeback (the heap is
// being dropped with its table). Pinned frames — a scan may be decoding one
// of the dropped table's pages right now — are unmapped and marked dead so
// the last unpin frees them; they are never written back into the retired
// heap file. A loading frame's read completes against the still-open
// descriptor and is likewise freed once its fetchers let go.
func (p *Pool) invalidate(h *heapFile) {
	for _, s := range p.shards {
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if !f.inUse || f.tag.h != h {
				continue
			}
			delete(s.idx, f.tag)
			f.dirty = false
			if f.pins == 0 && !f.loading {
				s.freeLocked(f)
			} else {
				f.dead = true
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns the pool's cumulative counters and current occupancy,
// aggregated across shards, plus one PoolShardStats per shard.
func (p *Pool) Stats() (stats PoolStats) {
	stats.Capacity = p.pages
	stats.Shards = make([]PoolShardStats, len(p.shards))
	for si, s := range p.shards {
		s.mu.Lock()
		sh := PoolShardStats{Capacity: len(s.frames)}
		for i := range s.frames {
			if s.frames[i].inUse {
				sh.Resident++
				if s.frames[i].dirty {
					stats.Dirty++
				}
			}
		}
		sh.Hits, sh.Misses, sh.Evictions = s.hits, s.misses, s.evictions
		stats.Hits += s.hits
		stats.Misses += s.misses
		stats.Evictions += s.evictions
		stats.Writebacks += s.writebacks
		stats.LoadWaits += s.loadWaits
		stats.Resident += sh.Resident
		s.mu.Unlock()
		stats.Shards[si] = sh
	}
	return stats
}

// PoolStats is the buffer-pool snapshot surfaced on the admin interface and
// consumed by the larger-than-RAM benchmarks.
type PoolStats struct {
	Capacity int // frames configured (across all shards)
	Resident int // frames currently holding a page
	Dirty    int // resident frames awaiting writeback

	Hits      uint64 // fetches served from a resident frame
	Misses    uint64 // fetches that installed a frame and read from disk
	Evictions uint64 // frames recycled by CLOCK
	// Writebacks counts dirty pages written back (eviction + checkpoints).
	Writebacks uint64
	// LoadWaits counts fetches that arrived while another fetcher's disk
	// read of the same page was in flight and waited on its frame latch
	// instead of issuing a second read — the singleflight counter. These
	// count as neither hits nor misses.
	LoadWaits uint64

	SpilledTables int // tables paging through this pool
	PinnedTables  int // tables kept fully resident by policy
	// HeapPages counts pages currently holding data across all heap files
	// (sealed pages with records, plus each tail). Freed pages are excluded.
	HeapPages int
	// FreePages counts reclaimed heap pages waiting on free lists for the
	// tail allocators to reuse.
	FreePages int
	// ReclaimedPages counts pages ever returned to a free list — fully-dead
	// sealed pages swept by GC or rewritten by the page compactor.
	ReclaimedPages uint64
	// DeadSlots totals the heap records no version chain references anymore
	// that still occupy allocated pages. GC and the page compactor drive it
	// back down by freeing and rewriting mostly-dead pages.
	DeadSlots uint64

	// Shards holds one entry per pool shard, in shard order.
	Shards []PoolShardStats
	// Tables lists each spillable table's heap footprint, sorted by name.
	Tables []PoolTableInfo
}

// PoolShardStats is one shard's slice of the pool counters.
type PoolShardStats struct {
	Capacity  int // frames owned by this shard
	Resident  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// PoolTableInfo is one spillable table's entry in PoolStats.
type PoolTableInfo struct {
	Name      string
	Pages     int    // heap pages currently holding data (sealed + tail)
	FreePages int    // reclaimed pages on the heap's free list
	DeadSlots uint64 // dead records still occupying the pages above
}

// String renders the snapshot as the admin surfaces show it: one pool line,
// per-shard lines when the pool is sharded, one heap line, and one line per
// spillable table.
func (s PoolStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool: frames=%d resident=%d dirty=%d hit-ratio=%.1f%% (hits=%d misses=%d) load-waits=%d evictions=%d writebacks=%d\n",
		s.Capacity, s.Resident, s.Dirty, 100*s.HitRatio(), s.Hits, s.Misses, s.LoadWaits, s.Evictions, s.Writebacks)
	if len(s.Shards) > 1 {
		fmt.Fprintf(&b, "shards: %d\n", len(s.Shards))
		for i, sh := range s.Shards {
			fmt.Fprintf(&b, "  shard %-3d frames=%-4d resident=%-4d hits=%d misses=%d evictions=%d\n",
				i, sh.Capacity, sh.Resident, sh.Hits, sh.Misses, sh.Evictions)
		}
	}
	fmt.Fprintf(&b, "heap: spilled-tables=%d pinned-relations=%d pages=%d (%d KiB) free-pages=%d reclaimed=%d dead-slots=%d\n",
		s.SpilledTables, s.PinnedTables, s.HeapPages, s.HeapPages*PageSize/1024,
		s.FreePages, s.ReclaimedPages, s.DeadSlots)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "  %-24s %d page(s)", t.Name, t.Pages)
		if t.FreePages > 0 {
			fmt.Fprintf(&b, "  free-pages=%d", t.FreePages)
		}
		if t.DeadSlots > 0 {
			fmt.Fprintf(&b, "  dead-slots=%d", t.DeadSlots)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HitRatio returns hits/(hits+misses), or 1 when the pool is untouched.
// Latch waits (LoadWaits) are in neither term: they did not read disk, but
// they did pay for someone else's read.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}
