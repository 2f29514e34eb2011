// Package mem models the NetFPGA boards' off-chip memory subsystems: the
// QDRII+ SRAMs (flow tables, counters) and the DDR3 SoDIMMs (packet
// buffers, soft-core RAM) described in the SUME paper. The models are
// timing-first: they reproduce the bandwidth/latency envelope — fixed
// pipelined latency and dual independent ports for QDR, bank/row dynamics
// and refresh for DDR3 — over a sparse backing store, so multi-gigabyte
// parts cost only what is touched.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Memory is the interface both models implement. Operations complete
// asynchronously in simulated time; callbacks run when the data is valid.
type Memory interface {
	// Name identifies the device instance.
	Name() string
	// Size returns the capacity in bytes.
	Size() uint64
	// Read fetches n bytes at addr; cb receives the data when the
	// device returns it. The slice is the device's reused scratch
	// buffer: it is valid only for the duration of the callback, and
	// the next read completion overwrites it. A callback that keeps the
	// data must copy it.
	Read(addr uint64, n int, cb func([]byte))
	// Write stores data at addr; cb (optional) runs at write completion.
	// The data is captured at the call, so the caller may reuse its
	// buffer immediately.
	Write(addr uint64, data []byte, cb func())
	// Stats exports device counters.
	Stats() map[string]uint64
}

// port is one serialized access path of a device: a QDR read or write
// port, or a DDR3 channel. Its completion times strictly increase, so
// every access completes through one sim.Chain, with the per-access
// data kept in a FIFO pushed in lockstep with the chain. The chain is
// created on first access, so a device that never touches its memory
// pays nothing for it.
type port struct {
	sim     *sim.Sim
	data    *store
	chain   *sim.Chain
	ops     sim.FIFO[access]
	scratch []byte // read buffer lent to each read callback in turn
}

// access is one queued read or write.
type access struct {
	write bool
	addr  uint64
	n     int          // read length
	read  func([]byte) // read callback
	wdata []byte       // write data
	wdone func()       // optional write callback
}

// push queues access a to complete at time at.
func (p *port) push(at sim.Time, a access) {
	if p.chain == nil {
		p.chain = p.sim.NewChain(p.complete)
	}
	p.chain.Push(at)
	p.ops.Push(a)
}

// read queues an n-byte read at addr completing at time at.
func (p *port) read(at sim.Time, addr uint64, n int, cb func([]byte)) {
	p.push(at, access{addr: addr, n: n, read: cb})
}

// write queues a write of a private copy of data completing at time at.
func (p *port) write(at sim.Time, addr uint64, data []byte, cb func()) {
	p.push(at, access{write: true, addr: addr, wdata: append([]byte(nil), data...), wdone: cb})
}

// complete performs the oldest queued access at its completion time.
func (p *port) complete() {
	a := p.ops.Pop()
	if a.write {
		p.data.write(a.addr, a.wdata)
		if a.wdone != nil {
			a.wdone()
		}
		return
	}
	if cap(p.scratch) < a.n {
		p.scratch = make([]byte, a.n)
	}
	buf := p.scratch[:a.n]
	p.data.read(a.addr, buf)
	a.read(buf)
}

const pageSize = 4096

// store is a sparse page-granular backing store.
type store struct {
	pages map[uint64]*[pageSize]byte
}

func newStore() *store { return &store{pages: make(map[uint64]*[pageSize]byte)} }

func (s *store) page(n uint64, create bool) *[pageSize]byte {
	p := s.pages[n]
	if p == nil && create {
		p = new([pageSize]byte)
		s.pages[n] = p
	}
	return p
}

func (s *store) read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		pn, off := addr/pageSize, addr%pageSize
		n := pageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if p := s.page(pn, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += n
	}
}

func (s *store) write(addr uint64, data []byte) {
	for len(data) > 0 {
		pn, off := addr/pageSize, addr%pageSize
		n := pageSize - off
		if uint64(len(data)) < n {
			n = uint64(len(data))
		}
		copy(s.page(pn, true)[off:off+n], data[:n])
		data = data[n:]
		addr += n
	}
}

func checkRange(name string, addr uint64, n int, size uint64) {
	if n < 0 || addr+uint64(n) > size || addr+uint64(n) < addr {
		panic(fmt.Sprintf("mem: %s access [0x%x, +%d) out of range (size 0x%x)", name, addr, n, size))
	}
}
