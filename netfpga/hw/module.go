package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Module is one building block of a datapath design. Modules are stepped
// once per datapath clock cycle and exchange beats via Streams handed to
// them at construction time.
//
// Tick must return true while the module has work in flight (see
// sim.Component); returning false from every module lets the datapath
// clock gate off.
type Module interface {
	// Name identifies the module instance within its design.
	Name() string
	// Tick advances the module by one clock cycle.
	Tick() bool
	// Resources estimates the fabric this module consumes.
	Resources() Resources
}

// StatsProvider is implemented by modules that export counters.
type StatsProvider interface {
	Stats() map[string]uint64
}

// BackgroundCoupler is the contention hook a hybrid-fidelity run
// installs on a design: an analytic background-traffic model that
// shares egress capacity with the cycle-accurate datapath. When a
// queueing module (OutputQueues) enqueues a foreground frame for a
// port, it asks Release for the clear-time of the background backlog
// pending at that instant and holds the frame until then — the frame
// waits behind exactly the background it arrived behind, and
// background admitted later queues conceptually behind the frame
// rather than extending its wait. That per-frame wait is how
// background load shows up in foreground latency percentiles.
// CouplePort registers the module's wake hook and WaitUntil arms it,
// so a parked queue stage re-arms the clock exactly when its head
// frame's wait expires; the wake fires from a simulation event, never
// re-entrantly from inside a Tick.
//
// Release is pure — no mutation, no event scheduling — so it is safe
// anywhere. WaitUntil schedules an event and must only be called from
// a Tick edge.
//
// Full-fidelity designs carry no coupler (Background() == nil) and
// every related branch is dead, which is the bit-exactness argument
// for the default path.
type BackgroundCoupler interface {
	// CouplePort registers wake to be called when a WaitUntil deadline
	// for port bit expires.
	CouplePort(bit int, wake func())
	// Release returns the clear-time of port bit's background backlog
	// pending now, or 0 when the wire is free. Pure.
	Release(bit int) Time
	// WaitUntil arms port bit's coupled wake for time t. Tick-edge
	// only.
	WaitUntil(bit int, t Time)
}

// SetBackground installs the design's background coupler (nil for full
// fidelity). Core installs it before any modules are built so queue
// constructors can couple their ports.
func (d *Design) SetBackground(bc BackgroundCoupler) { d.background = bc }

// Background returns the installed background coupler, or nil.
func (d *Design) Background() BackgroundCoupler { return d.background }

// TimingConstrained is implemented by modules whose logic limits the
// achievable clock frequency. Synthesize fails if the design clock exceeds
// the slowest module's Fmax.
type TimingConstrained interface {
	MaxFreqMHz() float64
}

// Resetter is implemented by modules with soft-resettable state.
type Resetter interface {
	Reset()
}

// DefaultBusBytes is the reference datapath width: 256-bit AXI4-Stream, as
// in the NetFPGA SUME reference designs.
const DefaultBusBytes = 32

// DefaultClockMHz is the reference datapath clock.
const DefaultClockMHz = 200.0

// Design is a module graph bound to a datapath clock. It implements
// sim.Component: one design tick steps every module in registration order,
// which should follow dataflow (sources first) for lowest latency.
type Design struct {
	name     string
	clock    *sim.Clock
	busBytes int
	modules  []Module
	// runnable implements sparse ticking: a module whose Tick returned
	// false is skipped on subsequent edges until something marks it
	// runnable again — a push into one of its input conduits (wired via
	// ModuleWake) or a design-wide Wake. By the Component contract an
	// idle module's Tick is a side-effect-free false until new input
	// arrives, so skipping it is observably identical to ticking it and
	// removes the dominant per-edge cost: walking every idle module of
	// the design on every busy cycle.
	runnable []bool
	// tickCounts records how many cycles each module actually executed
	// (skipped-idle cycles excluded) — the observable proof that sparse
	// ticking works, and the per-module half of the fleet's utilization
	// story. One counter increment per executed module-cycle; noise
	// next to the Tick call it accompanies.
	tickCounts []uint64
	streams    []*Stream
	queues     []*FrameQueue
	pool       FramePool
	overhead   Resources
	synth      bool
	// background is the hybrid-fidelity contention hook; nil in full
	// fidelity, where every coupler branch is dead code.
	background BackgroundCoupler
}

// NewDesign creates a design named name on the given datapath clock with a
// busBytes-wide datapath, and registers it as a component of that clock.
func NewDesign(name string, clk *sim.Clock, busBytes int) *Design {
	if busBytes <= 0 {
		busBytes = DefaultBusBytes
	}
	d := &Design{name: name, clock: clk, busBytes: busBytes}
	// Infrastructure overhead: clocking, reset trees, AXI interconnect.
	d.overhead = Resources{LUTs: 9000, FFs: 14000, BRAM36: 8}
	clk.Register(d)
	return d
}

// Name returns the design's name.
func (d *Design) Name() string { return d.name }

// BusBytes returns the datapath width in bytes.
func (d *Design) BusBytes() int { return d.busBytes }

// Clock returns the datapath clock.
func (d *Design) Clock() *sim.Clock { return d.clock }

// Now returns the current simulated time, for timestamping modules.
func (d *Design) Now() Time { return d.clock.Now() }

// Wake re-arms the datapath clock and conservatively marks every module
// runnable; stream pushes call it automatically unless they are wired to
// a specific consumer via ModuleWake.
func (d *Design) Wake() {
	for i := range d.runnable {
		d.runnable[i] = true
	}
	d.clock.Wake()
}

// ModuleWake returns a wake hook that marks only m runnable before
// re-arming the clock. Modules install it on their input streams and
// queues (s.OnPush(d.ModuleWake(m))) so a push wakes exactly the
// consumer it feeds; conduits without a known consumer keep the
// mark-everything Wake default.
func (d *Design) ModuleWake(m Module) func() {
	for i := range d.modules {
		if d.modules[i] == m {
			return func() {
				d.runnable[i] = true
				d.clock.Wake()
			}
		}
	}
	return d.Wake
}

// Pool returns the design's frame pool, shared by the design's modules
// and the device's edge endpoints (taps) so frames recycle across the
// whole traffic loop of one simulation.
func (d *Design) Pool() *FramePool { return &d.pool }

// AddModule appends a module to the design's tick order.
func (d *Design) AddModule(m Module) {
	d.modules = append(d.modules, m)
	d.runnable = append(d.runnable, true)
	d.tickCounts = append(d.tickCounts, 0)
	d.clock.Wake()
}

// Modules returns the design's modules in tick order.
func (d *Design) Modules() []Module { return d.modules }

// ModuleTicks returns, per module name, how many cycles that module
// actually executed. With sparse ticking (ModuleWake wiring) an idle
// module's count stops growing even while the rest of the design is
// busy — the regression tests for sparse-wired projects pin exactly
// that. Counts are exact for every clock batch size.
func (d *Design) ModuleTicks() map[string]uint64 {
	out := make(map[string]uint64, len(d.modules))
	for i, m := range d.modules {
		out[m.Name()] = d.tickCounts[i]
	}
	return out
}

// NewStream creates a stream owned by the design, wired to wake the
// datapath clock on push.
func (d *Design) NewStream(name string, capBeats int) *Stream {
	s := NewStream(name, capBeats)
	s.OnPush(d.Wake)
	d.streams = append(d.streams, s)
	return s
}

// NewFrameQueue creates a frame queue owned by the design, wired to wake
// the datapath clock on push. Edge adapters (MAC/DMA attach) use these.
func (d *Design) NewFrameQueue(name string, capFrames, capBytes int) *FrameQueue {
	q := NewFrameQueue(name, capFrames, capBytes)
	q.OnPush(d.Wake)
	d.queues = append(d.queues, q)
	return q
}

// Streams returns the design's streams.
func (d *Design) Streams() []*Stream { return d.streams }

// Tick implements sim.Component by stepping every runnable module once.
// Idle modules stay skipped until an input push or Wake re-marks them.
func (d *Design) Tick() bool {
	busy := false
	for i, m := range d.modules {
		if !d.runnable[i] {
			continue
		}
		d.tickCounts[i]++
		if m.Tick() {
			busy = true
		} else {
			d.runnable[i] = false
		}
	}
	return busy
}

// Reset soft-resets every module that supports it and marks all modules
// runnable, since reset may have changed their state.
func (d *Design) Reset() {
	for _, m := range d.modules {
		if r, ok := m.(Resetter); ok {
			r.Reset()
		}
	}
	d.Wake()
}

// Stats aggregates counters from all modules, prefixed by module name, and
// adds stream drop/occupancy gauges.
func (d *Design) Stats() map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range d.modules {
		if sp, ok := m.(StatsProvider); ok {
			for k, v := range sp.Stats() {
				out[m.Name()+"."+k] = v
			}
		}
	}
	for _, q := range d.queues {
		if q.Drops() > 0 {
			out[q.Name()+".drops"] = q.Drops()
		}
	}
	return out
}

// Synthesize validates the design against a target device and produces a
// utilization report. It fails if the design exceeds the device's
// capacity, needs more serial links than the device offers, or declares a
// module Fmax below the datapath clock.
func (d *Design) Synthesize(dev FPGA) (*Report, error) {
	rep := &Report{
		Design:   d.name,
		Device:   dev,
		ClockMHz: d.clock.FreqMHz(),
	}
	total := d.overhead
	rep.PerModule = append(rep.PerModule, ModuleUsage{Module: "infrastructure", Res: d.overhead})
	fmax := 0.0
	for _, m := range d.modules {
		r := m.Resources()
		total = total.Add(r)
		rep.PerModule = append(rep.PerModule, ModuleUsage{Module: m.Name(), Res: r})
		if tc, ok := m.(TimingConstrained); ok {
			if f := tc.MaxFreqMHz(); f > 0 && (fmax == 0 || f < fmax) {
				fmax = f
			}
		}
	}
	// Streams are skid buffers: FFs proportional to width and depth.
	for _, s := range d.streams {
		total = total.Add(Resources{LUTs: 8 * d.busBytes, FFs: s.Cap() * d.busBytes / 4, BRAM36: BRAMForBytes(s.Cap() * d.busBytes / 8)})
	}
	rep.Total = total
	rep.FmaxMHz = fmax
	if !total.FitsIn(dev.Capacity) {
		return rep, fmt.Errorf("hw: design %s does not fit %s: need %+v, have %+v",
			d.name, dev.Name, total, dev.Capacity)
	}
	if fmax > 0 && rep.ClockMHz > fmax {
		return rep, fmt.Errorf("hw: design %s fails timing on %s: clock %.1f MHz > Fmax %.1f MHz",
			d.name, dev.Name, rep.ClockMHz, fmax)
	}
	d.synth = true
	return rep, nil
}
