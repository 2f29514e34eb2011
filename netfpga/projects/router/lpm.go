package router

import "repro/netfpga/pkt"

// Route is one FIB entry.
type Route struct {
	Prefix pkt.Prefix
	// NextHop is the gateway address; the zero IP means the prefix is
	// directly connected (the next hop is the packet's destination).
	NextHop pkt.IP4
	// Port is the egress interface.
	Port uint8
}

// Trie is a binary (unibit) longest-prefix-match trie, the structure the
// hardware FIB models. Lookups walk at most 32 nodes; inserts and
// removals are in-place. Nodes come from fixed-size slabs and carry
// their route inline, and pruned nodes are reused before a new slab is
// cut, so building a FIB allocates once per slab rather than once per
// node and route.
type Trie struct {
	root *trieNode
	slab []trieNode // unused tail of the current slab
	free *trieNode  // pruned nodes, linked through child[0]
	n    int
}

// trieSlab is the number of nodes allocated at a time.
const trieSlab = 256

type trieNode struct {
	child    [2]*trieNode
	route    Route
	hasRoute bool
}

// NewTrie returns an empty FIB.
func NewTrie() *Trie {
	t := &Trie{}
	t.root = t.newNode()
	return t
}

// newNode returns a zeroed node, reusing a pruned one if available.
func (t *Trie) newNode() *trieNode {
	if n := t.free; n != nil {
		t.free = n.child[0]
		*n = trieNode{}
		return n
	}
	if len(t.slab) == 0 {
		t.slab = make([]trieNode, trieSlab)
	}
	n := &t.slab[0]
	t.slab = t.slab[1:]
	return n
}

// Len returns the number of routes.
func (t *Trie) Len() int { return t.n }

// bitAt returns bit i (0 = most significant) of a.
func bitAt(a uint32, i uint8) int { return int(a>>(31-i)) & 1 }

// Insert adds or replaces the route for r.Prefix.
func (t *Trie) Insert(r Route) {
	addr := r.Prefix.Addr.Uint32() & r.Prefix.Mask()
	n := t.root
	for i := uint8(0); i < r.Prefix.Bits; i++ {
		b := bitAt(addr, i)
		if n.child[b] == nil {
			n.child[b] = t.newNode()
		}
		n = n.child[b]
	}
	if !n.hasRoute {
		t.n++
	}
	n.route, n.hasRoute = r, true
}

// Remove deletes the route for prefix, reporting whether it existed.
// Emptied branches are pruned and their nodes kept for reuse.
func (t *Trie) Remove(prefix pkt.Prefix) bool {
	addr := prefix.Addr.Uint32() & prefix.Mask()
	path := make([]*trieNode, 0, 33)
	n := t.root
	path = append(path, n)
	for i := uint8(0); i < prefix.Bits; i++ {
		n = n.child[bitAt(addr, i)]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	if !n.hasRoute {
		return false
	}
	n.route, n.hasRoute = Route{}, false
	t.n--
	// Prune childless, routeless nodes bottom-up.
	for i := len(path) - 1; i > 0; i-- {
		node := path[i]
		if node.hasRoute || node.child[0] != nil || node.child[1] != nil {
			break
		}
		path[i-1].child[bitAt(addr, uint8(i-1))] = nil
		node.child[0] = t.free
		t.free = node
	}
	return true
}

// Lookup returns the longest-prefix-match route for ip.
func (t *Trie) Lookup(ip pkt.IP4) (Route, bool) {
	addr := ip.Uint32()
	var best *trieNode
	n := t.root
	for i := uint8(0); ; i++ {
		if n.hasRoute {
			best = n
		}
		if i == 32 {
			break
		}
		n = n.child[bitAt(addr, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		return Route{}, false
	}
	return best.route, true
}

// Walk visits every route in prefix order (shorter prefixes first among
// ancestors; child order 0 then 1).
func (t *Trie) Walk(fn func(Route)) { walk(t.root, fn) }

func walk(n *trieNode, fn func(Route)) {
	if n == nil {
		return
	}
	if n.hasRoute {
		fn(n.route)
	}
	walk(n.child[0], fn)
	walk(n.child[1], fn)
}

// LinearFIB is a reference implementation: a flat route list scanned for
// the longest match. It exists to property-test the trie against.
type LinearFIB struct {
	routes []Route
}

// Insert adds or replaces a route.
func (l *LinearFIB) Insert(r Route) {
	for i := range l.routes {
		if l.routes[i].Prefix == r.Prefix {
			l.routes[i] = r
			return
		}
	}
	l.routes = append(l.routes, r)
}

// Remove deletes a route by prefix.
func (l *LinearFIB) Remove(prefix pkt.Prefix) bool {
	for i := range l.routes {
		if l.routes[i].Prefix == prefix {
			l.routes = append(l.routes[:i], l.routes[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup scans for the longest matching prefix.
func (l *LinearFIB) Lookup(ip pkt.IP4) (Route, bool) {
	var best Route
	found := false
	for _, r := range l.routes {
		if r.Prefix.Contains(ip) {
			if !found || r.Prefix.Bits > best.Prefix.Bits {
				best = r
				found = true
			}
		}
	}
	return best, found
}
