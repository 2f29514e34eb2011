package main

import (
	"encoding/binary"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/storage/resultstore"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Start and End are Unix nanoseconds so spans from the
// coordinator and its worker processes share one clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Proc   string `json:"proc"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// cellCounters are the per-cell device counters a traced Measure reads
// from c.Dev when the measure returns, plus the measure's CPU time.
type cellCounters struct {
	Cells        int       `json:"cells"`
	Events       uint64    `json:"events"`
	Edges        uint64    `json:"edges"`
	ModuleTicks  uint64    `json:"module_ticks"`
	SerialFrames uint64    `json:"serial_frames"`
	BgOffered    uint64    `json:"bg_offered_frames"`
	BgDelivered  uint64    `json:"bg_delivered_frames"`
	MeasureMS    []float64 `json:"measure_ms"`
}

func (c *cellCounters) add(o cellCounters) {
	c.Cells += o.Cells
	c.Events += o.Events
	c.Edges += o.Edges
	c.ModuleTicks += o.ModuleTicks
	c.SerialFrames += o.SerialFrames
	c.BgOffered += o.BgOffered
	c.BgDelivered += o.BgDelivered
	c.MeasureMS = append(c.MeasureMS, o.MeasureMS...)
}

// runtimeCounters are process-wide Go runtime totals from
// runtime/metrics (CPU is the runtime's estimate of CPU time used, idle
// time excluded); deltas of two readings cover one interval.
type runtimeCounters struct {
	CPUS     float64 `json:"cpu_s"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	GCCycles uint64  `json:"gc_cycles"`
	Allocs   uint64  `json:"allocs"`
	AllocB   uint64  `json:"alloc_bytes"`
}

var runtimeSamples = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeCounters{
		CPUS:     s[0].Value.Float64() - s[1].Value.Float64(),
		GCCPUS:   s[2].Value.Float64(),
		GCCycles: s[3].Value.Uint64(),
		Allocs:   s[4].Value.Uint64(),
		AllocB:   s[5].Value.Uint64(),
	}
}

func (r runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		CPUS:     r.CPUS - o.CPUS,
		GCCPUS:   r.GCCPUS - o.GCCPUS,
		GCCycles: r.GCCycles - o.GCCycles,
		Allocs:   r.Allocs - o.Allocs,
		AllocB:   r.AllocB - o.AllocB,
	}
}

func (r *runtimeCounters) add(o runtimeCounters) {
	r.CPUS += o.CPUS
	r.GCCPUS += o.GCCPUS
	r.GCCycles += o.GCCycles
	r.Allocs += o.Allocs
	r.AllocB += o.AllocB
}

// workerTrace is what a traced session worker hands back to the
// coordinator in a file when it exits.
type workerTrace struct {
	Spans   []span          `json:"spans"`
	Cells   cellCounters    `json:"cells"`
	Runtime runtimeCounters `json:"runtime"`
}

// tracer records spans and per-layer counters of the traced passes. It
// stays in memory until the run ends. A nil *tracer records nothing, so
// untraced passes call the same code paths at the cost of a nil check.
type tracer struct {
	proc string

	mu    sync.Mutex
	spans []span
	// measureParent is the span the traced Measure calls nest under.
	measureParent int

	// passCells counts the cells of the traced passes; cells counts the
	// traced Measure calls, wherever they ran.
	passCells int
	cells     cellCounters
	// runtime sums the Go runtime counters of every traced process.
	runtime runtimeCounters

	planMS     []float64
	appendUS   []float64
	closeMS    []float64
	spawnMS    []float64
	storeBytes int64
	busyMS     float64
	efficiency []float64

	shardFrames, shardBytes int64
	readWait, endpointLife  time.Duration
	coordCPU                time.Duration
	requeues                int
}

func newTracer(proc string) *tracer { return &tracer{proc: proc} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Proc: t.proc, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// record closes a span at the given times in one call (for spans whose
// start was taken before the tracer could be reached).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Proc: t.proc, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
}

// wrapMeasures returns groups whose Measure records a span per cell and
// reads the device counters when the measure returns. A nil tracer
// returns groups unchanged.
func (t *tracer) wrapMeasures(groups []sweep.Group) []sweep.Group {
	if t == nil {
		return groups
	}
	out := make([]sweep.Group, len(groups))
	for i, g := range groups {
		measure := g.Measure
		g.Measure = func(c *fleet.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
			// Pinned to one thread, the measure's goroutine is charged
			// only its own work by the thread CPU clock, not the time a
			// segmented scheduler keeps its device parked.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start, cpu0 := time.Now(), threadCPU()
			o, err := measure(c, cell)
			t.measured(c, cell.Key, start, time.Now(), threadCPU()-cpu0)
			return o, err
		}
		out[i] = g
	}
	return out
}

func (t *tracer) measured(c *fleet.Ctx, key string, start, end time.Time, cpu time.Duration) {
	cc := cellCounters{Cells: 1, MeasureMS: []float64{ms(cpu)}}
	if dev := c.Dev; dev != nil {
		cc.Events = dev.Sim.Executed()
		cc.Edges = dev.Clock.Ticks()
		for _, n := range dev.Dsn.ModuleTicks() {
			cc.ModuleTicks += n
		}
		for _, mac := range dev.MACs {
			st := mac.Stats()
			cc.SerialFrames += st["tx_frames"] + st["rx_frames"]
		}
		if bg := dev.Background(); bg != nil {
			cc.BgOffered, _, cc.BgDelivered, _, _, _ = bg.Totals()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.measureParent, Proc: t.proc,
		Name: "measure " + key, Start: start.UnixNano(), End: end.UnixNano()})
	t.cells.add(cc)
}

// threadCPU is the calling thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// setMeasureParent makes subsequent measure spans children of id.
func (t *tracer) setMeasureParent(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.measureParent = id
	t.mu.Unlock()
}

// appendRecord is RunWriter.Append, timed when traced.
func (t *tracer) appendRecord(rw *resultstore.RunWriter, rec resultstore.Record) error {
	if t == nil {
		return rw.Append(rec)
	}
	start := time.Now()
	err := rw.Append(rec)
	d := time.Since(start)
	t.mu.Lock()
	t.appendUS = append(t.appendUS, float64(d)/float64(time.Microsecond))
	t.mu.Unlock()
	return err
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *tracer) note(fn func(t *tracer)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t)
}

// frameCounter follows the shard wire format (a 4-byte big-endian
// length, then that many payload bytes) across arbitrary read or write
// boundaries and counts whole frames.
type frameCounter struct {
	hdr    [4]byte
	nhdr   int
	left   uint32
	frames int64
	bytes  int64
}

func (f *frameCounter) feed(p []byte) {
	f.bytes += int64(len(p))
	for len(p) > 0 {
		if f.left > 0 {
			n := uint32(len(p))
			if n > f.left {
				n = f.left
			}
			f.left -= n
			p = p[n:]
			if f.left == 0 {
				f.frames++
			}
			continue
		}
		f.hdr[f.nhdr] = p[0]
		f.nhdr++
		p = p[1:]
		if f.nhdr == 4 {
			f.nhdr = 0
			f.left = binary.BigEndian.Uint32(f.hdr[:])
			if f.left == 0 {
				f.frames++
			}
		}
	}
}

// pipeStats wraps one worker incarnation's stdio pipes. It always notes
// when the worker's first frame arrives (the end of its spawn, part of
// fleet set-up time); when counting it also counts frames and bytes in
// both directions and the time the coordinator spent blocked reading.
type pipeStats struct {
	counting bool

	mu       sync.Mutex
	first    time.Time
	in, out  frameCounter
	readWait time.Duration
}

type statReader struct {
	r io.Reader
	s *pipeStats
}

func (r statReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	s := r.s
	s.mu.Lock()
	if n > 0 && s.first.IsZero() {
		s.first = time.Now()
	}
	if s.counting {
		s.readWait += time.Since(start)
		s.out.feed(p[:n])
	}
	s.mu.Unlock()
	return n, err
}

type statWriter struct {
	w io.Writer
	s *pipeStats
}

func (w statWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	if w.s.counting {
		w.s.mu.Lock()
		w.s.in.feed(p[:n])
		w.s.mu.Unlock()
	}
	return n, err
}

func (s *pipeStats) firstFrame() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is sweep.Percentile (nearest rank, p in percent), reading
// 0 for an empty set.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sweep.Percentile(xs, p)
}

// median is the midpoint median of xs; 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
