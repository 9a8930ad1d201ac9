// Package bittorrent implements the BitTorrent content-distribution
// protocol (§5.1): a tracker, piece exchange with rarest-first selection,
// and tit-for-tat choking with an optimistic unchoke slot. The paper
// notes its implementation was the largest (420 LOC) because the protocol
// is "complex and underspecified"; this implementation keeps the same
// functional pieces without wire compatibility (as the paper also waives
// for its tree experiments).
package bittorrent

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Torrent describes the content being swarmed.
type Torrent struct {
	Name      string `json:"name"`
	Size      int    `json:"size"`
	PieceSize int    `json:"piece_size"`
}

// NumPieces returns the piece count.
func (t Torrent) NumPieces() int { return (t.Size + t.PieceSize - 1) / t.PieceSize }

// Tracker maintains the swarm membership.
type Tracker struct {
	ctx    *core.AppContext
	joined map[transport.Addr]bool
	swarm  []transport.Addr // in join order: a reply's seeded shuffle starts from it
}

// NewTracker creates a tracker bound to ctx (it listens on ctx.Job.Me's
// port).
func NewTracker(ctx *core.AppContext) *Tracker {
	return &Tracker{ctx: ctx, joined: make(map[transport.Addr]bool)}
}

// Start serves announce requests.
func (t *Tracker) Start() error {
	s := rpc.NewServer(t.ctx)
	s.Register("announce", t.handleAnnounce)
	return s.Start(t.ctx.Job.Me.Port)
}

// Swarm returns the current swarm size.
func (t *Tracker) Swarm() int { return len(t.swarm) }

func (t *Tracker) handleAnnounce(args rpc.Args) (any, error) {
	var who transport.Addr
	if err := args.Decode(0, &who); err != nil {
		return nil, err
	}
	// Reply with a random subset of other peers, then register the
	// announcer.
	var others []transport.Addr
	for _, a := range t.swarm {
		if a != who {
			others = append(others, a)
		}
	}
	rng := t.ctx.Rand()
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	if len(others) > 30 {
		others = others[:30]
	}
	if !t.joined[who] {
		t.joined[who] = true
		t.swarm = append(t.swarm, who)
	}
	return others, nil
}

// Peer settings: mainline defaults scaled to simulation.
const (
	maxPeers      = 16               // connections kept
	maxInflight   = 4                // outstanding piece requests
	unchokeSlots  = 3                // reciprocated upload slots, plus one optimistic slot
	rechokeEvery  = 10 * time.Second // choking algorithm period
	scheduleEvery = time.Second      // request scheduler period
	rpcTimeout    = 30 * time.Second
)

// remotePeer is this node's view of a neighbor.
type remotePeer struct {
	addr       transport.Addr
	have       []bool
	downloaded int  // bytes they sent us (for tit-for-tat)
	uploaded   int  // bytes we sent them
	unchoked   bool // whether WE unchoke THEM
}

// Peer is one swarm participant.
type Peer struct {
	ctx     *core.AppContext
	torrent Torrent
	tracker transport.Addr
	self    transport.Addr
	selfArg any // self pre-encoded once for announce/handshake calls

	have     []bool
	pieces   int
	peers    map[string]*remotePeer
	joined   []*remotePeer // peers' values in join order; every pass walks this, not the map
	inflight map[int]bool

	client *rpc.Client

	// CompletedAt is non-zero once the peer holds every piece.
	CompletedAt time.Time
	// Uploaded/Downloaded count payload bytes.
	Uploaded, Downloaded int
}

// NewPeer creates a peer. If seed is true it starts with the whole file.
func NewPeer(ctx *core.AppContext, torrent Torrent, tracker transport.Addr, seed bool) *Peer {
	p := &Peer{
		ctx: ctx, torrent: torrent, tracker: tracker,
		self:     ctx.Job.Me,
		selfArg:  rpc.PreEncode(ctx.Job.Me),
		have:     make([]bool, torrent.NumPieces()),
		peers:    make(map[string]*remotePeer),
		inflight: make(map[int]bool),
	}
	if seed {
		for i := range p.have {
			p.have[i] = true
		}
		p.pieces = len(p.have)
		p.CompletedAt = ctx.Now()
	}
	p.client = rpc.NewClient(ctx)
	p.client.Timeout = rpcTimeout
	return p
}

// Complete reports whether the peer holds all pieces.
func (p *Peer) Complete() bool { return p.pieces == p.torrent.NumPieces() }

// Pieces returns how many pieces the peer holds.
func (p *Peer) Pieces() int { return p.pieces }

// Start serves the peer protocol, announces to the tracker and begins
// the scheduler and choker loops.
func (p *Peer) Start() error {
	s := rpc.NewServer(p.ctx)
	s.Register("bt_handshake", p.handleHandshake)
	s.Register("bt_have", p.handleHave)
	s.Register("bt_request", p.handleRequest)
	if err := s.Start(p.self.Port); err != nil {
		return err
	}
	p.ctx.Go(p.announce)
	p.ctx.Periodic(scheduleEvery, p.schedule)
	p.ctx.Periodic(rechokeEvery, p.rechoke)
	p.ctx.Periodic(30*time.Second, p.announce)
	return nil
}

// announce refreshes the peer set from the tracker and handshakes new
// neighbors.
func (p *Peer) announce() {
	res, err := p.client.Call(p.tracker, "announce", p.selfArg)
	if err != nil {
		return
	}
	var others []transport.Addr
	if err := res.Decode(&others); err != nil {
		return
	}
	for _, a := range others {
		if len(p.peers) >= maxPeers {
			break
		}
		if _, ok := p.peers[a.String()]; ok || a == p.self {
			continue
		}
		p.handshake(a)
	}
}

func (p *Peer) handshake(a transport.Addr) {
	res, err := p.client.Call(a, "bt_handshake", p.selfArg, p.have)
	if err != nil {
		return
	}
	var theirHave []bool
	if err := res.Decode(&theirHave); err != nil || len(theirHave) != len(p.have) {
		return
	}
	p.join(a, theirHave)
}

// join adds a neighbour, or refreshes its bitfield if it is one already.
func (p *Peer) join(a transport.Addr, have []bool) {
	if rp, ok := p.peers[a.String()]; ok {
		rp.have = have
		return
	}
	rp := &remotePeer{addr: a, have: have}
	p.peers[a.String()] = rp
	p.joined = append(p.joined, rp)
}

func (p *Peer) handleHandshake(args rpc.Args) (any, error) {
	var who transport.Addr
	if err := args.Decode(0, &who); err != nil {
		return nil, err
	}
	var theirHave []bool
	if err := args.Decode(1, &theirHave); err != nil || len(theirHave) != len(p.have) {
		return nil, fmt.Errorf("bittorrent: bad bitfield")
	}
	if _, ok := p.peers[who.String()]; ok || len(p.peers) < maxPeers {
		p.join(who, theirHave)
	}
	return p.have, nil
}

func (p *Peer) handleHave(args rpc.Args) (any, error) {
	var who transport.Addr
	if err := args.Decode(0, &who); err != nil {
		return nil, err
	}
	idx := args.Int(1)
	if rp, ok := p.peers[who.String()]; ok && idx >= 0 && idx < len(rp.have) {
		rp.have[idx] = true
	}
	return nil, nil
}

// errChoked is returned to choked requesters.
var errChoked = fmt.Errorf("bittorrent: choked")

func (p *Peer) handleRequest(args rpc.Args) (any, error) {
	var who transport.Addr
	if err := args.Decode(0, &who); err != nil {
		return nil, err
	}
	idx := args.Int(1)
	rp, ok := p.peers[who.String()]
	if !ok {
		return nil, fmt.Errorf("bittorrent: unknown peer")
	}
	if !rp.unchoked {
		return nil, errChoked
	}
	if idx < 0 || idx >= len(p.have) || !p.have[idx] {
		return nil, fmt.Errorf("bittorrent: piece %d unavailable", idx)
	}
	size := p.pieceSize(idx)
	rp.uploaded += size
	p.Uploaded += size
	return make([]byte, size), nil
}

func (p *Peer) pieceSize(idx int) int {
	size := p.torrent.PieceSize
	if rem := p.torrent.Size - idx*p.torrent.PieceSize; rem < size {
		size = rem
	}
	return size
}

// rarestMissing returns missing piece indices ordered rarest-first among
// the current neighborhood.
func (p *Peer) rarestMissing() []int {
	counts := make([]int, len(p.have))
	for _, rp := range p.joined {
		for i, h := range rp.have {
			if h {
				counts[i]++
			}
		}
	}
	var missing []int
	for i, h := range p.have {
		if !h && !p.inflight[i] && counts[i] > 0 {
			missing = append(missing, i)
		}
	}
	sort.Slice(missing, func(a, b int) bool {
		if counts[missing[a]] != counts[missing[b]] {
			return counts[missing[a]] < counts[missing[b]]
		}
		return missing[a] < missing[b]
	})
	return missing
}

// schedule issues piece requests, rarest first, bounded by MaxInflight.
func (p *Peer) schedule() {
	if p.Complete() {
		return
	}
	for _, idx := range p.rarestMissing() {
		if len(p.inflight) >= maxInflight {
			return
		}
		// Any neighbor holding the piece may serve it; try in random
		// order so load spreads.
		var holders []*remotePeer
		for _, rp := range p.joined {
			if rp.have[idx] {
				holders = append(holders, rp)
			}
		}
		if len(holders) == 0 {
			continue
		}
		rng := p.ctx.Rand()
		rp := holders[rng.Intn(len(holders))]
		idx := idx
		p.inflight[idx] = true
		p.ctx.Go(func() {
			defer delete(p.inflight, idx)
			res, err := p.client.Call(rp.addr, "bt_request", p.selfArg, idx)
			if err != nil {
				return // choked or dead; the scheduler will retry
			}
			var data []byte
			if err := res.Decode(&data); err != nil {
				return
			}
			p.onPiece(idx, len(data), rp)
		})
	}
}

func (p *Peer) onPiece(idx, size int, from *remotePeer) {
	if p.have[idx] {
		return
	}
	p.have[idx] = true
	p.pieces++
	from.downloaded += size
	p.Downloaded += size
	if p.Complete() && p.CompletedAt.IsZero() {
		p.CompletedAt = p.ctx.Now()
	}
	// Advertise availability.
	for _, rp := range p.joined {
		rp := rp
		p.ctx.Go(func() {
			p.client.Call(rp.addr, "bt_have", p.selfArg, idx) //nolint:errcheck
		})
	}
}

// rechoke runs the choking algorithm: unchoke the UnchokeSlots best
// uploaders to us (tit-for-tat; seeds rank by what they serve), plus one
// random optimistic slot. Ties keep join order, so the order is total
// and never a function of where the platform placed the neighbours.
func (p *Peer) rechoke() {
	ranked := slices.Clone(p.joined)
	score := func(rp *remotePeer) int {
		if p.Complete() {
			return rp.uploaded
		}
		return rp.downloaded
	}
	slices.SortStableFunc(ranked, func(a, b *remotePeer) int {
		return cmp.Compare(score(b), score(a))
	})
	for i, rp := range ranked {
		rp.unchoked = i < unchokeSlots
	}
	if len(ranked) > unchokeSlots {
		rest := ranked[unchokeSlots:]
		rest[p.ctx.Rand().Intn(len(rest))].unchoked = true // optimistic
	}
}

// Unchoked counts currently unchoked neighbors (for tests).
func (p *Peer) Unchoked() int {
	n := 0
	for _, rp := range p.joined {
		if rp.unchoked {
			n++
		}
	}
	return n
}
