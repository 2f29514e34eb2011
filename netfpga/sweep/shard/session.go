package shard

import (
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// The session protocol: the coordinator opens a session, assigns cells
// in chunks as workers drain them, and the stream stays open in both
// directions — which is what makes death recovery (requeue what a dead
// worker still owed) and checkpoint migration (park a running device on
// one worker, resume it on another) possible. Both transports —
// stdin/stdout pipes to a spawned subprocess and a TCP connection to a
// remote `nf-bench shard-worker -listen` — carry exactly these frames.
//
// Coordinator -> worker, each as one Command frame:
//
//	Open    start a session: plan this config
//	Assign  execute these cells, streaming a Cell frame per completion
//	Resume  adopt a migrated checkpoint: replay, verify, finish the cell
//	Steal   park one in-flight cell at its next yield and ship it back
//	Close   finish in-flight work, report Done, end the session
//
// Worker -> coordinator, each as one SessionFrame:
//
//	Hello       session accepted: plan size + local pool width
//	Cell        one completed cell record (digest-stamped)
//	Checkpoint  a parked cell's WindowState, leaving this worker's care
//	Reject      a Resume whose replay failed verification
//	Done        session end: cells completed + utilization report
//	Err         fatal session failure
type Command struct {
	Open   *Request    `json:"open,omitempty"`
	Assign *Assign     `json:"assign,omitempty"`
	Resume *Checkpoint `json:"resume,omitempty"`
	Steal  bool        `json:"steal,omitempty"`
	Close  bool        `json:"close,omitempty"`
}

// Assign hands a worker a chunk of cells to execute. With MigrateAfter
// set, every cell in the chunk parks once at that cumulative
// executed-event count and comes back as a Checkpoint instead of a Cell
// — the forced-migration knob the determinism gates use to exercise the
// migration path on every cell.
type Assign struct {
	Keys         []string `json:"keys"`
	MigrateAfter uint64   `json:"migrate_after,omitempty"`
}

// Checkpoint is a partially executed cell in flight between workers:
// the cell's canonical key plus the parked device's WindowState. The
// state transfers by deterministic replay — the receiver rebuilds the
// cell's device from (config, key, seed), replays to exactly
// State.Executed events, and must reproduce State.Digest bit-exactly
// before continuing — so a checkpoint is valid on any worker and a
// diverged or forged one can never resume.
type Checkpoint struct {
	Key   string              `json:"key"`
	State netfpga.WindowState `json:"state"`
}

// Hello is the worker's session acceptance: how many cells its
// independently compiled plan holds (the coordinator refuses a worker
// that disagrees — a config or version skew would otherwise surface as
// digest mismatches mid-run) and how wide its local pool is.
type Hello struct {
	Cells   int `json:"cells"`
	Workers int `json:"workers"`
}

// Reject reports a Resume whose replay did not verify against the
// checkpoint digest. The cell is unharmed — the coordinator requeues it
// as a fresh cell — but the rejection is evidence of worker divergence
// worth surfacing.
type Reject struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// SessionDone is the worker's Close acknowledgement: how many cells it
// completed (Cell frames sent) and how its local pool spent the
// session.
type SessionDone struct {
	Cells int                     `json:"cells"`
	Util  fleet.UtilizationReport `json:"util"`
}

// SessionFrame is the worker-to-coordinator envelope of the session
// protocol: exactly one field set.
type SessionFrame struct {
	Hello      *Hello            `json:"hello,omitempty"`
	Cell       *sweep.CellRecord `json:"cell,omitempty"`
	Checkpoint *Checkpoint       `json:"checkpoint,omitempty"`
	Reject     *Reject           `json:"reject,omitempty"`
	Done       *SessionDone      `json:"done,omitempty"`
	Err        string            `json:"err,omitempty"`
}
