// Package webcache implements the cooperative web cache of §5.7: a
// Squirrel-style home-store cache built on the Pastry DHT. Each URL hashes
// to a home node; requests route to the home, which serves the object from
// its local LRU store or fetches it from the origin. Entries are evicted
// by LRU or when older than a TTL (100 entries and 120 s in the paper).
package webcache

import (
	"container/list"
	"time"
)

// lruEntry is one cached object.
type lruEntry struct {
	url     string
	fetched time.Time
}

// lruCache is a fixed-capacity LRU with TTL expiry. It is cooperative-
// concurrency safe (no internal locking needed under the SPLAY execution
// model: no yields inside its methods).
type lruCache struct {
	capacity int
	ttl      time.Duration
	order    *list.List // front = most recent
	byURL    map[string]*list.Element
}

func newLRUCache(capacity int, ttl time.Duration) *lruCache {
	return &lruCache{
		capacity: capacity,
		ttl:      ttl,
		order:    list.New(),
		byURL:    make(map[string]*list.Element),
	}
}

// get reports whether url is cached and fresh at time now, updating
// recency on hits and evicting the entry if stale.
func (c *lruCache) get(url string, now time.Time) bool {
	el, ok := c.byURL[url]
	if !ok {
		return false
	}
	e := el.Value.(*lruEntry)
	if c.ttl > 0 && now.Sub(e.fetched) > c.ttl {
		c.remove(el)
		return false
	}
	c.order.MoveToFront(el)
	return true
}

// put stores url (fetched at time now), evicting the LRU entry when full.
func (c *lruCache) put(url string, now time.Time) {
	if el, ok := c.byURL[url]; ok {
		e := el.Value.(*lruEntry)
		e.fetched = now
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		c.remove(c.order.Back())
	}
	el := c.order.PushFront(&lruEntry{url: url, fetched: now})
	c.byURL[url] = el
}

func (c *lruCache) remove(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry)
	delete(c.byURL, e.url)
	c.order.Remove(el)
}

// len returns the number of cached entries (fresh or not).
func (c *lruCache) len() int { return c.order.Len() }
