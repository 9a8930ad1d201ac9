package webcache

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Cache settings; they match §5.7.
const (
	// maxEntries bounds the local store (paper: 100).
	maxEntries = 100
	// ttl expires entries (paper: 120 s).
	ttl = 120 * time.Second
	// originDelay simulates a non-cached fetch from the origin server;
	// the paper measures 1–2 s on average.
	originDelay = 1500 * time.Millisecond
	// port is the cache RPC port (distinct from Pastry's).
	port = 9100
	// rpcTimeout bounds cache calls.
	rpcTimeout = 30 * time.Second
)

// GetResult describes one proxied request.
type GetResult struct {
	Hit   bool
	Delay time.Duration
}

// Cache is one cooperative-cache node layered over a Pastry node.
type Cache struct {
	ctx    *core.AppContext
	pastry *pastry.Node
	store  *lruCache
	client *rpc.Client
}

// New creates a cache node over an already started Pastry node.
func New(ctx *core.AppContext, p *pastry.Node) *Cache {
	c := &Cache{
		ctx:    ctx,
		pastry: p,
		store:  newLRUCache(maxEntries, ttl),
	}
	c.client = rpc.NewClient(ctx)
	c.client.Timeout = rpcTimeout
	return c
}

// Start serves the cache RPC interface.
func (c *Cache) Start() error {
	s := rpc.NewServer(c.ctx)
	s.Register("cache_get", c.handleCacheGet)
	return s.Start(port)
}

// URLKey hashes a URL into the Pastry identifier space (the home node).
func URLKey(url string) pastry.ID {
	sum := sha1.Sum([]byte(url))
	return pastry.ID(binary.BigEndian.Uint64(sum[:8]))
}

// cacheReply travels on the wire for cache_get.
type cacheReply struct {
	Hit  bool `json:"hit"`
	Size int  `json:"size"`
}

// handleCacheGet runs at the home node: serve locally or fetch from the
// origin and store.
func (c *Cache) handleCacheGet(args rpc.Args) (any, error) {
	url := args.String(0)
	if url == "" {
		return nil, fmt.Errorf("webcache: empty url")
	}
	now := c.ctx.Now()
	if c.store.get(url, now) {
		return cacheReply{Hit: true, Size: 0}, nil
	}
	// Origin fetch (simulated).
	c.ctx.Sleep(originDelay)
	c.store.put(url, c.ctx.Now())
	return cacheReply{Hit: false, Size: 8 << 10}, nil
}

// cacheAddr maps a Pastry peer to its cache RPC endpoint (same host,
// cache port).
func cacheAddr(ref pastry.NodeRef) transport.Addr {
	return transport.Addr{Host: ref.Addr.Host, Port: port}
}

// Get proxies one client request through the cooperative cache: route to
// the URL's home node, then ask it for the object. The returned delay is
// what a browser pointed at this proxy would observe (Fig. 14's metric).
func (c *Cache) Get(url string) (GetResult, error) {
	start := c.ctx.Now()
	key := URLKey(url)

	var home pastry.NodeRef
	if next, root := c.pastry.NextHop(key); root {
		home = next
	} else {
		res, err := c.pastry.Route(key)
		if err != nil {
			return GetResult{}, fmt.Errorf("webcache: route: %w", err)
		}
		home = res.Root
	}

	var reply cacheReply
	if home.Addr == c.pastry.Self().Addr {
		r, err := c.handleCacheGet(rpc.NewArgs(mustJSON(url)))
		if err != nil {
			return GetResult{}, err
		}
		reply = r.(cacheReply)
	} else {
		res, err := c.client.Call(cacheAddr(home), "cache_get", url)
		if err != nil {
			return GetResult{}, fmt.Errorf("webcache: home %s: %w", home, err)
		}
		if err := res.Decode(&reply); err != nil {
			return GetResult{}, err
		}
	}
	return GetResult{Hit: reply.Hit, Delay: c.ctx.Now().Sub(start)}, nil
}

func mustJSON(v any) []byte {
	data, err := rpc.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
