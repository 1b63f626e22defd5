package protect

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a bounded LRU response cache keyed by (query key, epoch).
// The engine's composite epoch advances with every effective mutation,
// so an entry tagged with the epoch it was computed at is invalidated
// for free the moment the dataset changes — Get only returns an entry
// whose epoch equals the reader's current epoch, no TTLs and no
// explicit invalidation anywhere in the write path.
//
// Entries additionally support the stale-while-revalidate protocol:
// GetStale returns the entry regardless of epoch (the caller serves it
// flagged stale while a background recompute runs) and
// BeginRefresh/EndRefresh is the per-key single-flight latch bounding
// those recomputes to one per key.
//
// Values are opaque (any); the serving layer stores rendered response
// bodies. All methods are safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
	// refreshing maps keys to their in-flight background refresh
	// claims (the single-flight latch).
	refreshing map[string]*refreshClaim

	hits, misses, stale atomic.Int64
	// met mirrors the internal tallies into registry counters when the
	// serving layer wires them (SetMetrics); nil fields are skipped.
	met cacheMetrics
}

// cacheMetrics is the optional registry-side mirror of the tallies.
type cacheMetrics struct {
	Hits, Misses, Stale interface{ Inc() }
}

type cacheEntry struct {
	key   string
	epoch uint64
	val   any
}

// refreshClaim tracks a key's in-flight refreshes: how many holders
// are active and the newest epoch claimed. A newer-epoch claim may
// supersede (overlap) an older in-flight one, but the latch is only
// released when the last active holder ends — so a superseded
// refresh finishing early can never free the latch out from under
// the newer holder and admit a duplicate.
type refreshClaim struct {
	active int
	max    uint64
}

// NewCache returns a cache bounded to max entries (min 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:        max,
		lru:        list.New(),
		byKey:      make(map[string]*list.Element),
		refreshing: make(map[string]*refreshClaim),
	}
}

// SetMetrics wires registry counters that mirror the hit/miss/stale
// tallies (any of them may be nil).
func (c *Cache) SetMetrics(hits, misses, stale interface{ Inc() }) {
	c.met = cacheMetrics{Hits: hits, Misses: misses, Stale: stale}
}

// Get returns the value cached under key if it was computed at exactly
// the given epoch. An entry at any other epoch is a miss — it is left
// in place for GetStale, not evicted, since the stale-while-revalidate
// path may still serve it.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	c.mu.Lock()
	e, ok := c.byKey[key]
	if ok {
		ent := e.Value.(*cacheEntry)
		if ent.epoch == epoch {
			// Copy before unlocking: a racing Put updates the entry in
			// place under the lock.
			val := ent.val
			c.lru.MoveToFront(e)
			c.mu.Unlock()
			c.hits.Add(1)
			if c.met.Hits != nil {
				c.met.Hits.Inc()
			}
			return val, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	if c.met.Misses != nil {
		c.met.Misses.Inc()
	}
	return nil, false
}

// GetStale returns whatever is cached under key regardless of epoch,
// with the epoch it was computed at — the stale-while-revalidate read.
// It counts a stale serve; call it only when actually about to serve
// the result.
func (c *Cache) GetStale(key string) (val any, epoch uint64, ok bool) {
	c.mu.Lock()
	e, found := c.byKey[key]
	if !found {
		c.mu.Unlock()
		return nil, 0, false
	}
	ent := e.Value.(*cacheEntry)
	val, entEpoch := ent.val, ent.epoch // copy before unlocking (Put mutates in place)
	c.lru.MoveToFront(e)
	c.mu.Unlock()
	c.stale.Add(1)
	if c.met.Stale != nil {
		c.met.Stale.Inc()
	}
	return val, entEpoch, true
}

// Peek returns whatever is cached under key with its epoch, like
// GetStale, but as a bookkeeping read: it neither refreshes the entry's
// LRU position nor counts toward the hit/miss/stale tallies.
func (c *Cache) Peek(key string) (val any, epoch uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.byKey[key]
	if !found {
		return nil, 0, false
	}
	ent := e.Value.(*cacheEntry)
	return ent.val, ent.epoch, true
}

// Put stores val under (key, epoch), replacing an older-epoch entry
// and evicting the least recently used entry past the bound. A stored
// entry at a newer epoch wins: a slow computation racing a fresh one
// never regresses the cache.
func (c *Cache) Put(key string, epoch uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		ent := e.Value.(*cacheEntry)
		if epoch < ent.epoch {
			return
		}
		ent.epoch, ent.val = epoch, val
		c.lru.MoveToFront(e)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, epoch: epoch, val: val})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// BeginRefresh claims the single-flight refresh latch for key toward
// epoch. It returns true when the caller should run the refresh (no
// refresh toward this epoch or newer is in flight); the caller must
// then call EndRefresh when done, success or not. Concurrent holders
// for one key always have strictly increasing epochs: at most one
// refresh per (key, epoch) is ever admitted while any holder lives.
func (c *Cache) BeginRefresh(key string, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.refreshing[key]
	if !ok {
		c.refreshing[key] = &refreshClaim{active: 1, max: epoch}
		return true
	}
	if epoch <= cl.max {
		return false
	}
	cl.active++
	cl.max = epoch
	return true
}

// EndRefresh releases one holder's claim on key's refresh latch; the
// latch clears when the last active holder releases.
func (c *Cache) EndRefresh(key string) {
	c.mu.Lock()
	if cl, ok := c.refreshing[key]; ok {
		cl.active--
		if cl.active <= 0 {
			delete(c.refreshing, key)
		}
	}
	c.mu.Unlock()
}

// CacheStats is the operator-facing cache summary (the /stats cache
// section).
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Stale   int64 `json:"staleServed"`
}

// Stats returns the current tallies.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Entries: n,
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stale:   c.stale.Load(),
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
