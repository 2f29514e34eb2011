package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/netfpga"
)

// batchFingerprint canonicalises a whole batch result set.
func batchFingerprint(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(fingerprint(r))
	}
	return b.String()
}

// TestSegmentedDeterministicAcrossWorkersAndBudgets is the segment
// scheduler's headline contract: for every (workers x segment budget)
// combination — tiny budgets that park devices thousands of times,
// the auto default, and fully unsegmented — the batch's per-device
// results are byte-identical to sequential whole-job execution. Every
// leg also counts live devices (Build entered, Drive not yet returned):
// a worker runs one device to completion before it starts the next, so
// no more than Workers devices may ever be alive at once.
func TestSegmentedDeterministicAcrossWorkersAndBudgets(t *testing.T) {
	var live, peak atomic.Int64
	mkJobs := func(n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			job := switchJob(fmt.Sprintf("dev%d", i))
			build, drive := job.Build, job.Drive
			job.Build = func(dev *netfpga.Device) error {
				cur := live.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				return build(dev)
			}
			job.Drive = func(c *Ctx) (any, error) {
				defer live.Add(-1)
				return drive(c)
			}
			jobs[i] = job
		}
		return jobs
	}
	refs := map[int]string{}
	for _, n := range []int{8, 16} {
		refs[n] = batchFingerprint((&Runner{Workers: 1, BaseSeed: 42}).
			RunAll(context.Background(), mkJobs(n)))
	}

	type leg struct {
		name    string
		workers int
		jobs    int
		segment bool
		budget  uint64
	}
	var legs []leg
	for _, workers := range []int{1, 4, 8} {
		legs = append(legs,
			leg{"tiny", workers, 8, true, 512},
			leg{"default", workers, 8, true, 0},
			leg{"unsegmented", workers, 8, false, 0})
	}
	// More jobs than workers at a tiny budget: every device parks many
	// times while others wait, which is where interleaving parked devices
	// would hold the whole batch in memory.
	for _, workers := range []int{1, 2, 4} {
		legs = append(legs, leg{"tiny16", workers, 16, true, 512})
	}

	for _, l := range legs {
		peak.Store(0)
		r := &Runner{Workers: l.workers, BaseSeed: 42, Segment: l.segment, SegmentBudget: l.budget}
		res := r.RunAll(context.Background(), mkJobs(l.jobs))
		for _, rr := range res {
			if rr.Err != nil {
				t.Fatalf("workers=%d budget=%s: job %q failed: %v", l.workers, l.name, rr.Name, rr.Err)
			}
		}
		if got := batchFingerprint(res); got != refs[l.jobs] {
			t.Errorf("workers=%d budget=%s: results diverge from sequential whole-job run",
				l.workers, l.name)
		}
		if p := peak.Load(); p > int64(l.workers) {
			t.Errorf("workers=%d budget=%s: %d devices alive at once", l.workers, l.name, p)
		}
		u := r.Utilization()
		if u == nil {
			t.Fatalf("workers=%d budget=%s: no utilization report", l.workers, l.name)
		}
		// Only the tiny budget is guaranteed to split these small
		// jobs; the auto default may legitimately run them whole.
		if l.segment && l.budget != 0 && u.Segments <= uint64(l.jobs) {
			t.Errorf("workers=%d budget=%s: only %d segments — scheduler did not split jobs",
				l.workers, l.name, u.Segments)
		}
	}
}

// TestSegmentedEventBudget: the Stop.Events stopping point must not
// move under segmentation, even when the segment budget is far smaller
// than the event budget (so segments expire mid-window many times).
func TestSegmentedEventBudget(t *testing.T) {
	run := func(segment bool, budget uint64) Result {
		job := switchJob("budget")
		job.Stop = Stop{Events: 5000}
		r := &Runner{Workers: 1, BaseSeed: 7, Segment: segment, SegmentBudget: budget}
		return r.RunAll(context.Background(), []Job{job})[0]
	}
	ref := run(false, 0)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, budget := range []uint64{64, 333, 5000, 1 << 20} {
		got := run(true, budget)
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		if fingerprint(got) != fingerprint(ref) {
			t.Errorf("budget=%d: event-budgeted result diverges from unsegmented", budget)
		}
	}
}

// TestSegmentedStream: segmented streaming delivers every result
// exactly once, and the re-sorted set matches whole-job execution.
func TestSegmentedStream(t *testing.T) {
	mkJobs := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = switchJob(fmt.Sprintf("s%d", i))
		}
		return jobs
	}
	want := (&Runner{Workers: 1, BaseSeed: 9}).RunAll(context.Background(), mkJobs())
	seen := make([]bool, len(want))
	r := &Runner{Workers: 3, BaseSeed: 9, Segment: true, SegmentBudget: 1024}
	for res := range r.RunStream(context.Background(), mkJobs()) {
		if seen[res.Index] {
			t.Fatalf("duplicate delivery for index %d", res.Index)
		}
		seen[res.Index] = true
		if fingerprint(res) != fingerprint(want[res.Index]) {
			t.Errorf("index %d diverges from whole-job run", res.Index)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("index %d never delivered", i)
		}
	}
}

// TestSegmentedErrorIsolation: failures and panics inside segmented
// drives park correctly and never wedge the pool.
func TestSegmentedErrorIsolation(t *testing.T) {
	boom := errors.New("deliberate failure")
	panicker := switchJob("panics")
	drive := panicker.Drive
	panicker.Drive = func(c *Ctx) (any, error) {
		// Run a few segments first so the panic happens mid-schedule,
		// after real park/resume cycles.
		if _, err := drive(c); err != nil {
			return nil, err
		}
		panic("deliberate panic")
	}
	jobs := []Job{
		switchJob("ok0"),
		{Name: "fails", NoDevice: true, Drive: func(c *Ctx) (any, error) { return nil, boom }},
		panicker,
		switchJob("ok1"),
	}
	res := (&Runner{Workers: 4, Segment: true, SegmentBudget: 512}).
		RunAll(context.Background(), jobs)
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", res[0].Err, res[3].Err)
	}
	if !errors.Is(res[1].Err, boom) {
		t.Errorf("job 1: want wrapped %v, got %v", boom, res[1].Err)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "panicked") {
		t.Errorf("job 2: want recovered panic, got %v", res[2].Err)
	}
}

// TestSegmentedCancellation: cancelling a segmented batch abandons
// unstarted jobs and interrupts in-flight RunFor loops at the next
// slice, while parked devices still run to a clean finish. Unlike the
// whole-job pool, the segment scheduler seeds longest-declared-window
// first, so the two live jobs carry large declared windows and the
// must-not-start job a small one to pin the schedule.
func TestSegmentedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []Job{
		{Name: "canceller", NoDevice: true, Stop: Stop{SimTime: netfpga.Second},
			Drive: func(c *Ctx) (any, error) {
				<-started
				cancel()
				return "done", nil
			}},
		{Name: "inflight", Board: netfpga.SUME(), Stop: Stop{SimTime: netfpga.Second},
			Drive: func(c *Ctx) (any, error) {
				close(started)
				n := 0
				for c.RunFor(netfpga.Microsecond) {
					// Yield so the canceller goroutine runs even on a
					// single-CPU machine: this empty device's RunFor has
					// no events, hence no segment yields either.
					runtime.Gosched()
					n++
					if n > 1_000_000 {
						return nil, errors.New("RunFor ignored cancellation")
					}
				}
				if !c.Canceled() {
					return nil, errors.New("expected cancellation")
				}
				return "interrupted", nil
			}},
		switchJob("never-starts"),
	}
	// Seeding order (by declared window): canceller -> worker 0,
	// inflight -> worker 1, never-starts queued behind the canceller.
	// Worker 0 reaches it only after the canceller finishes, i.e. after
	// the cancel.
	res := (&Runner{Workers: 2, Segment: true, SegmentBudget: 256}).RunAll(ctx, jobs)
	if res[0].Err != nil || res[0].Value != "done" {
		t.Errorf("job 0: %v %v", res[0].Value, res[0].Err)
	}
	if res[1].Err != nil || res[1].Value != "interrupted" {
		t.Errorf("job 1: %v %v", res[1].Value, res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrCanceled) {
		t.Errorf("job 2: want ErrCanceled, got %v", res[2].Err)
	}
}

// TestUtilizationReport sanity-checks the report's arithmetic on a
// real segmented batch.
func TestUtilizationReport(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = switchJob(fmt.Sprintf("u%d", i))
	}
	r := &Runner{Workers: 3, BaseSeed: 1, Segment: true, SegmentBudget: 2048}
	if got := r.Utilization(); got != nil {
		t.Fatalf("utilization before any batch: %v", got)
	}
	r.RunAll(context.Background(), jobs)
	u := r.Utilization()
	if u == nil {
		t.Fatal("no utilization after batch")
	}
	if u.Workers != 3 || u.Jobs != 6 || !u.Segmented {
		t.Fatalf("report shape: %+v", u)
	}
	if u.Wall <= 0 || u.BusyTotal() <= 0 {
		t.Fatalf("empty timings: wall=%v busy=%v", u.Wall, u.BusyTotal())
	}
	if eff := u.Efficiency(); eff <= 0 || eff > 1.5 {
		t.Errorf("implausible efficiency %.2f", eff)
	}
	if u.LongestJob == "" || u.LongestBusy <= 0 {
		t.Errorf("longest-job tracking empty: %q %v", u.LongestJob, u.LongestBusy)
	}
	if u.Segments < 6 {
		t.Errorf("segments %d < jobs", u.Segments)
	}
	if !strings.Contains(u.String(), "segmented pool") {
		t.Errorf("report rendering: %q", u.String())
	}
}

// TestAutoSegmentBudget pins the auto-sizing rule.
func TestAutoSegmentBudget(t *testing.T) {
	if got := autoSegmentBudget(Job{}); got != DefaultSegmentBudget {
		t.Errorf("undeclared window: %d", got)
	}
	if got := autoSegmentBudget(Job{Stop: Stop{Events: 1 << 30}}); got != DefaultSegmentBudget {
		t.Errorf("huge event bound must clamp to default: %d", got)
	}
	if got := autoSegmentBudget(Job{Stop: Stop{Events: 16 * 1024}}); got != 1024 {
		t.Errorf("16k events should split into ~16 segments: %d", got)
	}
	if got := autoSegmentBudget(Job{Stop: Stop{Events: 100}}); got != minSegmentBudget {
		t.Errorf("tiny bound must floor: %d", got)
	}
}
