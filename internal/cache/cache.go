// Package cache implements the deterministic hot-key cache resident at ToR
// RSNodes and their accelerators: a bounded byte budget over variable-size
// items with frequency-gated LRU admission, plus explicit invalidation on
// writes so the fabric's coherence messages can keep every replica of the
// cache honest (OrbitCache/NetChain-style in-network caching composed with
// the paper's replica selection).
//
// Everything is deterministic: no clocks, no randomness, no map iteration.
// Item sizes derive from the key through a fixed 64-bit mixer, the LRU
// order is an explicit doubly-linked list, and the admission gate is a
// counting doorkeeper with a deterministic reset, so a simulation that
// consults the cache replays bit-identically at any engine parallelism.
package cache

import (
	"errors"
	"fmt"

	"netrs/internal/sim"
)

// ErrInvalidConfig reports a cache configured outside its domain.
var ErrInvalidConfig = errors.New("cache: invalid config")

// Default admission parameters, applied by New when the corresponding
// Config field is zero.
const (
	// DefaultAdmitAfter is the frequency gate: a key is admitted only
	// once it has missed this many times, so one-hit wonders cannot
	// churn the LRU (TinyLFU's doorkeeper rationale).
	DefaultAdmitAfter = 2
	// DefaultMinItem / DefaultMaxItem bound the deterministic per-key
	// value sizes (bytes). OrbitCache's variable-size items motivate the
	// spread: a byte budget over uniform sizes is just a slot count.
	DefaultMinItem = 64
	DefaultMaxItem = 1024
)

// Config parameterizes one cache instance.
type Config struct {
	// Budget bounds the summed item sizes in bytes. Zero disables the
	// cache: every Lookup misses, nothing is ever admitted, and no state
	// beyond the stats counters is touched.
	Budget int64
	// AdmitAfter is the number of recorded misses a key needs before a
	// passing response admits it. Zero means DefaultAdmitAfter; one
	// admits on the first response.
	AdmitAfter int
	// MinItem and MaxItem bound the deterministic per-key item size.
	// Zero means the package defaults.
	MinItem, MaxItem int64
}

// Stats counts the cache's observable events.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Admissions    uint64
	Evictions     uint64
	Invalidations uint64
}

// entry is one resident item on the intrusive LRU list.
type entry struct {
	key        uint64
	size       int64
	prev, next *entry
}

// Cache is a byte-budgeted LRU with frequency-gated admission. The zero
// value is not usable; construct with New.
type Cache struct {
	budget     int64
	admitAfter uint32
	minItem    int64
	span       int64 // MaxItem - MinItem + 1

	used    int64
	entries map[uint64]*entry
	head    *entry // most recently used
	tail    *entry // eviction candidate
	free    *entry // recycled entries, reused before allocating

	// seen is the admission doorkeeper: per-key miss counts, cleared
	// wholesale once it outgrows seenCap so a long scan over cold keys
	// cannot grow memory without bound. The reset is triggered purely by
	// insertion count, so it is deterministic.
	seen    map[uint64]uint32
	seenCap int

	stats Stats
}

// New constructs a cache. A zero Budget is legal and yields a disabled
// cache (always missing, never admitting) so callers can wire the cache
// unconditionally and let configuration decide.
func New(cfg Config) (*Cache, error) {
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("budget %d bytes: %w", cfg.Budget, ErrInvalidConfig)
	}
	if cfg.AdmitAfter < 0 {
		return nil, fmt.Errorf("admit-after %d: %w", cfg.AdmitAfter, ErrInvalidConfig)
	}
	if cfg.MinItem < 0 || cfg.MaxItem < 0 {
		return nil, fmt.Errorf("item sizes [%d, %d]: %w", cfg.MinItem, cfg.MaxItem, ErrInvalidConfig)
	}
	if cfg.AdmitAfter == 0 {
		cfg.AdmitAfter = DefaultAdmitAfter
	}
	if cfg.MinItem == 0 {
		cfg.MinItem = DefaultMinItem
	}
	if cfg.MaxItem == 0 {
		cfg.MaxItem = DefaultMaxItem
	}
	if cfg.MaxItem < cfg.MinItem {
		return nil, fmt.Errorf("max item %d below min item %d: %w", cfg.MaxItem, cfg.MinItem, ErrInvalidConfig)
	}
	c := &Cache{
		budget:     cfg.Budget,
		admitAfter: uint32(cfg.AdmitAfter),
		minItem:    cfg.MinItem,
		span:       cfg.MaxItem - cfg.MinItem + 1,
	}
	if c.budget > 0 {
		c.entries = make(map[uint64]*entry)
		c.seen = make(map[uint64]uint32)
		// Room for every key that could plausibly contend for residency:
		// 8x the item capacity at the smallest size, floored generously.
		cap64 := 8 * (c.budget / cfg.MinItem)
		if cap64 < 1024 {
			cap64 = 1024
		}
		c.seenCap = int(cap64)
	}
	return c, nil
}

// Enabled reports whether the cache can ever hit.
func (c *Cache) Enabled() bool { return c.budget > 0 }

// ItemSize returns the deterministic value size of a key in bytes. The
// bijective mix makes the sizes uniform over [MinItem, MaxItem] yet a
// key's size a pure function of the key.
func (c *Cache) ItemSize(key uint64) int64 {
	return c.minItem + int64(sim.Mix64(key)%uint64(c.span))
}

// Lookup consults the cache on the request path. A hit refreshes the key's
// LRU position; a miss records the key with the admission doorkeeper so a
// later Admit can let it in.
func (c *Cache) Lookup(key uint64) bool {
	if c.budget == 0 {
		c.stats.Misses++
		return false
	}
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.moveToFront(e)
		return true
	}
	c.stats.Misses++
	if len(c.seen) >= c.seenCap {
		clear(c.seen)
	}
	c.seen[key]++
	return false
}

// Admit offers a key on the response path. It is admitted only when the
// doorkeeper has seen enough misses (the frequency gate), it fits the
// budget at all, and it is not already resident. Older items are evicted
// from the LRU tail until the new item fits.
func (c *Cache) Admit(key uint64) bool {
	if c.budget == 0 {
		return false
	}
	if _, ok := c.entries[key]; ok {
		return false
	}
	if c.seen[key] < c.admitAfter {
		return false
	}
	size := c.ItemSize(key)
	if size > c.budget {
		return false
	}
	for c.used+size > c.budget {
		c.evictTail()
	}
	e := c.newEntry(key, size)
	c.entries[key] = e
	c.used += size
	c.pushFront(e)
	c.stats.Admissions++
	return true
}

// Invalidate removes a key (a write committed somewhere); reports whether
// it was resident.
func (c *Cache) Invalidate(key uint64) bool {
	if c.budget == 0 {
		return false
	}
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.remove(e)
	c.stats.Invalidations++
	return true
}

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of resident items.
func (c *Cache) Len() int { return len(c.entries) }

// Used returns the bytes currently resident.
func (c *Cache) Used() int64 { return c.used }

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

func (c *Cache) evictTail() {
	e := c.tail
	c.remove(e)
	c.stats.Evictions++
}

// remove unlinks an entry, drops it from the index, and recycles it.
func (c *Cache) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	delete(c.entries, e.key)
	c.used -= e.size
	e.prev = nil
	e.next = c.free
	c.free = e
}

func (c *Cache) newEntry(key uint64, size int64) *entry {
	if e := c.free; e != nil {
		c.free = e.next
		e.key, e.size, e.prev, e.next = key, size, nil, nil
		return e
	}
	return &entry{key: key, size: size}
}

func (c *Cache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev = nil
	c.pushFront(e)
}
