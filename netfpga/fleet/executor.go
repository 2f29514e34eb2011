package fleet

import "context"

// Executor is the execution substrate behind a batch of jobs: anything
// that can take a compiled job list and stream back one Result per job.
// The sweep layer plans cells against this interface instead of a
// concrete pool. *Runner is the in-process implementation (whole-job or
// segmented work-stealing scheduling); the multi-process shard fleet
// (netfpga/sweep/shard) runs a Runner inside every worker process and
// merges the streamed results in expansion order.
//
// The contract every backend must honour is the fleet's determinism
// rule: a job's result is a pure function of the job and its seed,
// never of the backend, the worker count, or scheduling order. That is
// what makes golden digests comparable across backends.
type Executor interface {
	// Execute runs the batch, delivering each Result as its job
	// finishes (completion order). The returned channel is closed when
	// the batch is done; the caller must drain it.
	Execute(ctx context.Context, jobs []Job) <-chan Result
	// SeedBase returns the base seed the backend folds into derived
	// per-job seeds. Planners use it to derive position-independent
	// seeds before compiling jobs.
	SeedBase() uint64
	// Utilization returns the report of the most recently completed
	// batch (nil before the first).
	Utilization() *Utilization
}

// Execute implements Executor; it is RunStream under the interface's
// name.
func (r *Runner) Execute(ctx context.Context, jobs []Job) <-chan Result {
	return r.RunStream(ctx, jobs)
}

// SeedBase implements Executor.
func (r *Runner) SeedBase() uint64 { return r.BaseSeed }

var _ Executor = (*Runner)(nil)
