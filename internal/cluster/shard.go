// Master-side support for the dim-sharded gather: lane attachment and the
// per-worker sub-frame assembler. A worker splits each step's gradient
// into contiguous (offset, len) spans, one per lane connection (a single
// span covering the whole vector on one lane); recvFrameV2 asks the
// assembler to reserve the destination span before the payload bytes are
// read, reads them straight into the step's gather buffer at the offset
// (no reassembly copy), and the reader commits the span afterwards — the
// step surfaces as an ordinary whole-vector arrival once the last span
// lands, and its buffer comes back to the assembler once the step loop
// is done with it.
package cluster

import (
	"sync"
	"time"

	"isgc/internal/events"
)

// shardWindowMin is the fewest in-flight steps an assembler keeps before
// evicting stale ones; the staleness window widens it so foldable
// stragglers are not thrown away mid-reassembly.
const shardWindowMin = 3

// grantShards resolves a worker's proposed lane count against the
// master's cap: 0 caps at the protocol maximum, anything else at
// min(proposal, cap). The result is always ≥ 1.
func grantShards(proposed, cap int) int {
	if proposed < 1 {
		proposed = 1
	}
	if proposed > maxGatherShards {
		proposed = maxGatherShards
	}
	if cap > 0 && proposed > cap {
		proposed = cap
	}
	return proposed
}

// shardAssembler reassembles one worker's gradient sub-frames into whole
// vectors. One assembler per worker id, shared by the primary reader and
// every lane reader — all state sits behind its mutex, and the
// reserve/commit split matches recvFrameV2's read sequence (reserve
// before the payload bytes arrive, commit after they landed).
//
// It is also the worker's gather arena: a gather buffer the step loop is
// done with comes back through release, and the next step's reservation
// reuses it instead of allocating. Recycling is safe because commit hands
// a buffer out only once every element was written in this life —
// overlapping spans are refused, and only spans reserved from the buffer
// itself count — and a buffer still under reassembly, or evicted with
// reads possibly in flight, is never on the free list.
type shardAssembler struct {
	mu     sync.Mutex
	window int // in-flight steps kept before eviction; also the free-list cap
	newest int
	steps  map[int]*shardBuf
	free   [][]float64 // released gather buffers, at most window
	shells []*shardBuf // emptied shardBufs, at most window
	// onReject counts protocol violations (overlapping spans, total
	// mismatch) — the sub-frame flavor of the malformed-gradient counter.
	onReject func(step, offset, count, total int)
}

// shardBuf is one step's gather buffer under reassembly.
type shardBuf struct {
	buf   []float64
	got   int      // float64 words committed so far
	spans [][2]int // reserved (offset, len) intervals, for overlap checks
}

// offsetOf reports the offset of span within sb's buffer, and whether
// span was reserved from that buffer at all. A reserved span is
// buf[o:o+k], whose capacity cap(buf)−o pins its offset o.
func (sb *shardBuf) offsetOf(span []float64) (int, bool) {
	o := cap(sb.buf) - cap(span)
	return o, len(span) > 0 && o >= 0 && o < len(sb.buf) && &sb.buf[o] == &span[0]
}

// reserveFor maps an incoming sub-frame to the destination slice its
// payload is read into, or declines with nil. The worker id claimed in
// the frame is ignored — the assembler is bound to the authenticated
// connection's id.
func (a *shardAssembler) reserveFor(_, step, offset, count, total int) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	sb := a.steps[step]
	if sb == nil {
		if step > a.newest {
			a.newest = step
		}
		// Evict steps that fell out of the in-flight window: their missing
		// spans are never coming (the worker sends lanes step by step), and
		// an unbounded map would leak on a perpetually straggling lane.
		// An evicted buffer is dropped, not recycled: a lane may still be
		// reading into one of its reserved spans.
		for s := range a.steps {
			if s <= a.newest-a.window {
				delete(a.steps, s)
			}
		}
		sb = a.newShardBuf(total)
		a.steps[step] = sb
	}
	if len(sb.buf) != total || offset+count > total {
		a.reject(step, offset, count, total)
		return nil
	}
	for _, sp := range sb.spans {
		if offset < sp[0]+sp[1] && sp[0] < offset+count {
			a.reject(step, offset, count, total)
			return nil
		}
	}
	sb.spans = append(sb.spans, [2]int{offset, count})
	return sb.buf[offset : offset+count]
}

// newShardBuf returns an empty shardBuf over a total-word gather buffer,
// reusing a released buffer and an emptied shell when there are any.
func (a *shardAssembler) newShardBuf(total int) *shardBuf {
	var sb *shardBuf
	if k := len(a.shells); k > 0 {
		sb, a.shells = a.shells[k-1], a.shells[:k-1]
	} else {
		sb = new(shardBuf)
	}
	if k := len(a.free); k > 0 {
		buf := a.free[k-1]
		a.free = a.free[:k-1]
		if cap(buf) >= total {
			sb.buf = buf[:total]
			return sb
		}
	}
	sb.buf = make([]float64, total)
	return sb
}

func (a *shardAssembler) reject(step, offset, count, total int) {
	if a.onReject != nil {
		a.onReject(step, offset, count, total)
	}
}

// unreserve hands back a span reserveFor returned whose payload never
// fully arrived (the read failed mid-payload), so the same span re-sent
// after a rejoin is accepted instead of refused as an overlap. A span of
// a buffer since evicted is already gone.
func (a *shardAssembler) unreserve(step int, span []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sb := a.steps[step]
	if sb == nil {
		return
	}
	offset, ok := sb.offsetOf(span)
	if !ok {
		return
	}
	for i, sp := range sb.spans {
		if sp == [2]int{offset, len(span)} {
			sb.spans = append(sb.spans[:i], sb.spans[i+1:]...)
			return
		}
	}
}

// commit records a landed sub-frame and returns the completed vector once
// every element has landed; ownership of the buffer transfers to the
// caller on completion, until it comes back through release. Only a span
// reserved from the step's current buffer counts: a commit for an evicted
// step, or whose payload sits in another buffer, reports not-done (its
// reserved span was read into an orphaned buffer, harmlessly).
func (a *shardAssembler) commit(e *Envelope) ([]float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sb := a.steps[e.Step]
	if sb == nil || len(sb.buf) != e.Total {
		return nil, false
	}
	if _, ok := sb.offsetOf(e.Coded); !ok {
		return nil, false
	}
	sb.got += len(e.Coded)
	if sb.got < len(sb.buf) {
		return nil, false
	}
	delete(a.steps, e.Step)
	buf := sb.buf
	if len(a.shells) < a.window {
		*sb = shardBuf{spans: sb.spans[:0]}
		a.shells = append(a.shells, sb)
	}
	return buf, true
}

// release returns a completed gather buffer to the arena once the step
// loop is done with it: nothing may read or write buf afterwards.
func (a *shardAssembler) release(buf []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) < a.window {
		a.free = append(a.free, buf)
	}
}

// shardAsmFor returns worker id's sub-frame assembler, creating it on
// first use. Assemblers survive re-registrations — the worker serializes
// its lane sends, so spans never interleave across generations.
func (m *Master) shardAsmFor(id int) *shardAssembler {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	if m.shardAsms == nil {
		m.shardAsms = make(map[int]*shardAssembler)
	}
	a := m.shardAsms[id]
	if a == nil {
		window := m.cfg.Staleness + 2
		if window < shardWindowMin {
			window = shardWindowMin
		}
		a = &shardAssembler{window: window, newest: -1, steps: make(map[int]*shardBuf),
			onReject: func(step, offset, count, total int) {
				m.malformed.Add(1)
				m.cfg.Metrics.markMalformed()
				m.cfg.Events.Warn("master.malformed_subframe", "gradient sub-frame rejected before decode",
					step, id, events.Fields{"offset": offset, "count": count, "total": total})
			}}
		m.shardAsms[id] = a
	}
	return a
}

// attachLane joins one extra gather-lane connection to an already
// registered worker. The lane hello names the lane index and the master
// generation it registered under; a lane for a dead or previous-life
// registration, or past the lanes it was granted, is refused by closing
// it — the worker's dialLanes then fails as a unit and the whole
// registration retries.
func (m *Master) attachLane(c *conn, hello *Envelope, readers *sync.WaitGroup) {
	id := hello.Worker
	m.mu.Lock()
	ws := m.workers[id]
	masterGen := m.generation
	done := m.done
	ok := !done && ws != nil && ws.alive && hello.Gen == masterGen &&
		hello.Shard >= 1 && hello.Shard < ws.shards
	gen := -1
	if ok {
		gen = ws.gen
	}
	m.mu.Unlock()
	if !ok {
		if done {
			_ = c.send(&Envelope{Kind: MsgJobGone})
		}
		_ = c.close()
		return
	}
	c.asm = m.shardAsmFor(id)
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Wire: WireBinary2, Shard: hello.Shard, Gen: masterGen}); err != nil {
		_ = c.close()
		return
	}
	c.upgrade(false)
	// Register the lane on the generation it validated against: a rejoin
	// that raced in installs a fresh workerState this lane must not join.
	m.mu.Lock()
	cur := m.workers[id]
	attached := cur != nil && cur.gen == gen && cur.alive
	if attached {
		cur.lanes = append(cur.lanes, c)
	}
	m.mu.Unlock()
	if !attached {
		_ = c.close()
		return
	}
	m.cfg.Metrics.markShardLane()
	m.cfg.Events.Debug("master.lane_attached", "gather lane attached", events.NoStep, id,
		events.Fields{"lane": hello.Shard, "generation": gen})
	readers.Add(1)
	go m.readLane(id, gen, c, readers)
}

// readLane pumps one extra gather-lane connection. Lanes carry gradient
// sub-frames only; heartbeats and control traffic stay on the primary. A
// broken lane breaks the worker's whole gather pipe, so its exit closes
// the primary connection — the eviction then runs exactly once, through
// the primary reader's exit path, like any other connection loss.
func (m *Master) readLane(id, gen int, c *conn, readers *sync.WaitGroup) {
	defer readers.Done()
	for {
		e, err := c.recv()
		if err != nil {
			break
		}
		m.mu.Lock()
		if ws := m.workers[id]; ws != nil && ws.gen == gen {
			ws.lastSeen = time.Now()
		}
		m.mu.Unlock()
		if e.Kind == MsgGradient {
			if !m.deliverGradient(id, e) {
				return
			}
		}
	}
	_ = c.close()
	m.mu.Lock()
	if ws := m.workers[id]; ws != nil && ws.gen == gen && ws.alive {
		_ = ws.c.close()
	}
	m.mu.Unlock()
}
