package serve

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result cache: verdicts keyed by the
// canonical problem/config hash, bounded by an LRU. Trust boundary: only
// definitive results may enter (Put refuses the rest), so a budget-starved
// or crashed run can never poison the answer a later tenant receives — a
// cache hit is always byte-identical to a completed cold solve of the same
// key.
type Cache struct {
	mu     sync.Mutex
	lru    *lru[*Result] // one unit of weight per result
	hits   uint64
	misses uint64
}

// DefaultCacheEntries bounds the cache when the configuration does not.
const DefaultCacheEntries = 4096

// NewCache returns a cache holding at most max results (0 = default).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{lru: newLRU[*Result](max)}
}

// Get returns the cached result for key, counting a hit or miss.
func (c *Cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.lru.get(key)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return res, true
}

// Put stores a definitive result, evicting the least recently used entry
// when full. It reports whether the result was admitted; non-definitive
// results and key mismatches are refused.
func (c *Cache) Put(key string, res *Result) bool {
	if res == nil || !res.Definitive || res.Key != key {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, res, 1)
	return true
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.order.Len(), Hits: c.hits, Misses: c.misses}
}

// lru maps keys to values under a weight budget, evicting the least
// recently used entries until the total weight fits. The result cache
// weighs each result 1; the record table weighs each record in bytes. It is
// not safe for concurrent use: its owner holds its own lock.
type lru[V any] struct {
	budget  int
	weight  int                      // total weight held
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // value: *lruEntry[V]
}

type lruEntry[V any] struct {
	key    string
	val    V
	weight int
}

func newLRU[V any](budget int) *lru[V] {
	return &lru[V]{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the value held for key and makes it the most recently used.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put holds val under key with the given weight as the most recently used
// entry, replacing what key held, then evicts from the least recently used
// end until the total weight fits the budget.
func (l *lru[V]) put(key string, val V, weight int) {
	if el, ok := l.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		l.weight += weight - e.weight
		e.val, e.weight = val, weight
		l.order.MoveToFront(el)
	} else {
		l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, val: val, weight: weight})
		l.weight += weight
	}
	for l.weight > l.budget {
		last := l.order.Back()
		e := last.Value.(*lruEntry[V])
		l.order.Remove(last)
		delete(l.entries, e.key)
		l.weight -= e.weight
	}
}
