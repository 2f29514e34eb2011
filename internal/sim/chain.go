package sim

// Chain completes a stream of events whose times never decrease — the
// completions of a serialized resource such as a memory port or a link
// direction — through one persistent timer instead of one timer per
// event.
//
// Each Push reserves the event's (time, seq) key at push time, exactly
// as an independent At would, and the chain keeps the keys in push
// order. Only the oldest pending key sits in the event heap, under its
// reserved key. Keys increase along a chain, so that head is the minimum
// of every event the chain holds; the heap minimum, and with it the
// global execution order, Executed counts, clock batching fences and
// RunSegment budgets, are therefore exactly those of one At per event.
//
// The chain carries no payload: a resource keeps its own FIFO of
// per-event data, pushed in lockstep with Push and popped once per fn
// call.
type Chain struct {
	t    Timer
	keys FIFO[chainKey] // reserved keys behind the head, in push order
	last Time
	fn   func()
}

type chainKey struct {
	at  Time
	seq uint64
}

// NewChain returns an empty chain that runs fn once per pushed event.
func (s *Sim) NewChain(fn func()) *Chain {
	c := &Chain{fn: fn}
	c.t = Timer{sim: s, idx: -1, fn: c.fire}
	return c
}

// Push schedules one event at absolute time at, which must be at or
// after both Now and the chain's previously pushed time. It panics
// otherwise: a chain that ran events out of push order would silently
// reorder causality.
func (c *Chain) Push(at Time) {
	s := c.t.sim
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	if at < c.last {
		panic("sim: chain event pushed out of order")
	}
	c.last = at
	s.seq++
	if !c.t.Pending() {
		c.t.scheduleKey(at, s.seq)
		return
	}
	c.keys.Push(chainKey{at, s.seq})
}

// fire runs the head event. The next key is armed before fn runs, so
// during fn the heap holds exactly what it would hold with one timer
// per event.
func (c *Chain) fire() {
	if c.keys.Len() > 0 {
		k := c.keys.Pop()
		c.t.scheduleKey(k.at, k.seq)
	}
	c.fn()
}
