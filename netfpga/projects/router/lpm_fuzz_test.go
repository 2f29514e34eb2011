package router

import (
	"testing"

	"repro/netfpga/pkt"
)

// trieOps decodes a byte string into Trie operations and runs each on
// both the trie and the LinearFIB reference, failing on the first
// disagreement. Every op starts with one selector byte (low two bits:
// insert, remove, lookup, walk); missing operand bytes read as zero.
//
//   - insert: 4 address bytes, prefix length (mod 33), port.
//   - remove: one byte picking an installed route (< 0xC0, when any are
//     installed), else 4 address bytes and a prefix length. Removing
//     installed routes prunes branches, so later inserts reuse nodes.
//   - lookup: 4 address bytes.
//   - walk: no operands; the walk must visit exactly the installed
//     routes, and the trie's structure is checked.
func trieOps(t *testing.T, data []byte) {
	trie, ref := NewTrie(), &LinearFIB{}
	take := func(n int) []byte {
		b := make([]byte, n)
		copy(b, data)
		data = data[min(n, len(data)):]
		return b
	}
	prefix := func() pkt.Prefix {
		b := take(5)
		p := pkt.Prefix{Bits: b[4] % 33}
		p.Addr = pkt.IP4FromUint32(pkt.IP4{b[0], b[1], b[2], b[3]}.Uint32() & p.Mask())
		return p
	}
	for op := 0; len(data) > 0; op++ {
		switch take(1)[0] & 3 {
		case 0:
			p := prefix()
			r := Route{Prefix: p, Port: take(1)[0], NextHop: pkt.IP4FromUint32(^p.Addr.Uint32())}
			trie.Insert(r)
			ref.Insert(r)
		case 1:
			var p pkt.Prefix
			if sel := take(1)[0]; sel < 0xC0 && len(ref.routes) > 0 {
				p = ref.routes[int(sel)%len(ref.routes)].Prefix
			} else {
				p = prefix()
			}
			if got, want := trie.Remove(p), ref.Remove(p); got != want {
				t.Fatalf("op %d: Remove(%v) = %v, reference %v", op, p, got, want)
			}
			checkTrie(t, trie)
		case 2:
			b := take(4)
			ip := pkt.IP4{b[0], b[1], b[2], b[3]}
			got, gok := trie.Lookup(ip)
			want, wok := ref.Lookup(ip)
			if gok != wok || got != want {
				t.Fatalf("op %d: Lookup(%v) = %v,%v, reference %v,%v", op, ip, got, gok, want, wok)
			}
		case 3:
			walked := map[pkt.Prefix]Route{}
			trie.Walk(func(r Route) {
				if _, dup := walked[r.Prefix]; dup {
					t.Fatalf("op %d: Walk visited %v twice", op, r.Prefix)
				}
				walked[r.Prefix] = r
			})
			if len(walked) != len(ref.routes) {
				t.Fatalf("op %d: Walk visited %d routes, reference holds %d", op, len(walked), len(ref.routes))
			}
			for _, r := range ref.routes {
				if walked[r.Prefix] != r {
					t.Fatalf("op %d: Walk gave %v for %v, reference %v", op, walked[r.Prefix], r.Prefix, r)
				}
			}
			checkTrie(t, trie)
		}
		if trie.Len() != len(ref.routes) {
			t.Fatalf("op %d: Len = %d, reference %d", op, trie.Len(), len(ref.routes))
		}
	}
}

// checkTrie verifies the trie's structure: the free list is acyclic, no
// reachable node is on it, pruning left no routeless leaf below the
// root, every route sits at the depth of its prefix length, and Len
// counts them.
func checkTrie(t *testing.T, tr *Trie) {
	t.Helper()
	free := map[*trieNode]bool{}
	for n := tr.free; n != nil; n = n.child[0] {
		if free[n] {
			t.Fatal("free list has a cycle")
		}
		free[n] = true
	}
	routes := 0
	var rec func(n *trieNode, depth uint8)
	rec = func(n *trieNode, depth uint8) {
		if free[n] || depth > 32 {
			t.Fatalf("node at depth %d is reachable and on the free list (or in a cycle)", depth)
		}
		if n != tr.root && !n.hasRoute && n.child[0] == nil && n.child[1] == nil {
			t.Fatalf("unpruned routeless leaf at depth %d", depth)
		}
		if n.hasRoute {
			routes++
			if n.route.Prefix.Bits != depth {
				t.Fatalf("route %v stored at depth %d", n.route.Prefix, depth)
			}
		}
		for _, c := range n.child {
			if c != nil {
				rec(c, depth+1)
			}
		}
	}
	rec(tr.root, 0)
	if routes != tr.Len() {
		t.Fatalf("trie holds %d routes, Len says %d", routes, tr.Len())
	}
}

// FuzzTrieOps is the coverage-guided differential test of the trie
// against LinearFIB; see trieOps for the encoding. The committed corpus
// under testdata/fuzz/FuzzTrieOps runs with every `go test`.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 1, 2, 10, 1, 2, 3, 3})
	// Nested prefixes, a lookup between them, remove the middle one.
	f.Add([]byte{
		0, 10, 0, 0, 0, 8, 1,
		0, 10, 1, 0, 0, 16, 2,
		0, 10, 1, 2, 0, 24, 3,
		2, 10, 1, 2, 9,
		1, 1, 3, 2, 10, 1, 2, 9, 3,
	})
	f.Fuzz(trieOps)
}

// Pruned nodes are recycled: once a FIB has reached its peak size,
// removing and reinstalling routes allocates nothing.
func TestTrieReusesPrunedNodes(t *testing.T) {
	fib := NewTrie()
	routes := make([]Route, 1000)
	for i := range routes {
		routes[i] = Route{Prefix: pkt.Prefix{Addr: pkt.IP4FromUint32(uint32(i) * 2654435761), Bits: 32}}
	}
	cycle := func() {
		for _, r := range routes {
			fib.Insert(r)
		}
		for _, r := range routes {
			if !fib.Remove(r.Prefix) {
				t.Fatalf("route %v missing", r.Prefix)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("insert/remove cycle allocates %.1f after warm-up", allocs)
	}
	if fib.Len() != 0 {
		t.Fatalf("Len = %d after removing every route", fib.Len())
	}
	checkTrie(t, fib)
}
