package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// chainEvent is one executed event of the differential scenario.
type chainEvent struct {
	at   Time
	id   int
	exec uint64 // Executed() while the event ran
}

// chainScenario builds a random schedule on s: three serialized
// resources, ordinary At timers and a busy clock, all drawing times from
// a narrow range so same-picosecond collisions with clock edges and with
// each other are common. Event handlers schedule further events, so
// pushes also happen while a chain's head is firing. With chained set
// the resources complete through Chains; otherwise every resource event
// is its own At timer — the reference the chain must match exactly.
//
// Both simulators draw from identically seeded generators, and only
// from inside events, so their draws stay in step exactly as long as
// their execution orders agree.
func chainScenario(s *Sim, seed uint64, chained bool) *[]chainEvent {
	const period, budget = 3, 4000
	rng := NewRand(seed)
	trace := new([]chainEvent)
	nextID, left := 0, budget
	hit := func(id int) { *trace = append(*trace, chainEvent{s.Now(), id, s.Executed()}) }

	work := 0
	clk := s.NewClock("clk", period)
	clk.RegisterFunc(func() bool {
		if work == 0 {
			return false
		}
		work--
		hit(-1)
		return work > 0
	})

	type resource struct {
		chain *Chain
		ids   FIFO[int]
		last  Time
	}
	var res [3]*resource
	var spawn func()
	for i := range res {
		r := &resource{}
		r.chain = s.NewChain(func() {
			hit(r.ids.Pop())
			spawn()
		})
		res[i] = r
	}
	push := func(r *resource, at Time) {
		id := nextID
		nextID++
		r.last = at
		if chained {
			r.chain.Push(at)
			r.ids.Push(id)
			return
		}
		s.At(at, func() { hit(id); spawn() })
	}
	// spawn is what every event does after recording itself: with
	// decreasing probability as the budget runs down, queue more work
	// on a resource, an At timer and the clock.
	spawn = func() {
		for left > 0 && rng.Intn(3) != 0 {
			left--
			switch rng.Intn(4) {
			case 0, 1:
				r := res[rng.Intn(len(res))]
				push(r, max(r.last, s.Now())+Time(rng.Intn(4)))
			case 2:
				id := nextID
				nextID++
				s.At(s.Now()+Time(rng.Intn(5)), func() { hit(id); spawn() })
			case 3:
				work += 1 + rng.Intn(4)
				clk.Wake()
			}
		}
	}
	for i := 0; i < 20; i++ {
		spawn()
	}
	return trace
}

// chainDrivers are the ways a run is driven: every one must execute the
// chained scenario exactly as it executes the reference.
var chainDrivers = []struct {
	name string
	run  func(s *Sim)
}{
	{"RunUntil", func(s *Sim) {
		for d := Time(0); len(s.heap) > 0; d += 7 {
			s.RunUntil(d)
		}
	}},
	{"RunSegment", func(s *Sim) {
		budgets := []uint64{1, 2, 3, 5}
		for i, d := 0, Time(5); len(s.heap) > 0; d += 11 {
			for !s.RunSegment(d, budgets[i%len(budgets)]) {
				i++
			}
		}
	}},
	{"StepBudget", func(s *Sim) {
		for d := Time(0); len(s.heap) > 0; d += 4 {
			for s.StepBudget(d, 3) {
			}
		}
	}},
	{"Drain", func(s *Sim) {
		for !s.Drain(7) {
		}
	}},
}

// TestChainMatchesPerEventTimers is the chain's differential test: for
// every driver and several seeds, the executed (time, id, Executed)
// trace and the final Executed count of the chained scenario equal the
// one-At-per-event reference.
func TestChainMatchesPerEventTimers(t *testing.T) {
	for _, d := range chainDrivers {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", d.name, seed), func(t *testing.T) {
				ref, got := New(), New()
				refTrace := chainScenario(ref, seed, false)
				gotTrace := chainScenario(got, seed, true)
				d.run(ref)
				d.run(got)
				if len(*refTrace) < 1000 {
					t.Fatalf("scenario ran only %d events", len(*refTrace))
				}
				if got.Executed() != ref.Executed() {
					t.Errorf("Executed = %d, reference %d", got.Executed(), ref.Executed())
				}
				if !reflect.DeepEqual(*gotTrace, *refTrace) {
					g, r := *gotTrace, *refTrace
					for i := range r {
						if i >= len(g) || g[i] != r[i] {
							t.Fatalf("first divergence at event %d: got %v, reference %v",
								i, g[i:min(i+3, len(g))], r[i:min(i+3, len(r))])
						}
					}
					t.Fatalf("chained trace has %d extra events", len(g)-len(r))
				}
			})
		}
	}
}

func TestChainPushPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	s := New()
	c := s.NewChain(func() {})
	c.Push(10)
	mustPanic("out of order", func() { c.Push(9) })
	c.Push(10) // equal times are in order
	s.RunUntil(20)
	mustPanic("past", func() { c.Push(19) })
	c.Push(20)
	if !s.Step() || s.Now() != 20 {
		t.Fatalf("event at 20 did not run (now %v)", s.Now())
	}
}

func TestFIFORecyclesBlocks(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Fill and drain across block boundaries several times over.
	for round, n := range []int{1, fifoBlockLen, 3*fifoBlockLen + 7, 2 * fifoBlockLen, 5} {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
		if q.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), n)
		}
		for i := 0; i < n; i++ {
			if v := q.Pop(); v != want {
				t.Fatalf("round %d: popped %d, want %d", round, v, want)
			}
			want++
		}
	}
	// Steady state: a queue that has reached its peak allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3*fifoBlockLen; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FIFO allocates %.1f per run", allocs)
	}
}
