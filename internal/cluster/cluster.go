// Package cluster distributes trace-replay sweeps across a fleet of
// jrpmd workers. A sweep grid — recorded traces × hydra configurations —
// is embarrassingly parallel: every (trace, config) cell is a pure
// replay of immutable recorded bytes. The coordinator partitions the
// grid into shards, ships each recording to workers content-addressed
// (a worker pulls a trace's bytes at most once; re-dispatches hit its
// TraceCache), and merges shard results into exactly what trace.Sweep
// would have produced locally — a property enforced at runtime by
// re-executing sentinel shards on a second worker and comparing the
// canonical encodings byte for byte.
//
// The scheduler is fault-tolerant: failed shards retry with exponential
// backoff and jitter, a per-worker circuit breaker stops hammering a
// dead worker, straggler shards are hedged onto a second worker, idle
// workers steal queued shards from busy ones, and when no worker is
// reachable at all the whole grid degrades gracefully to local
// execution. The worker set is always a fleet.Membership — fleet.Static
// for a fixed list, a registry for a living fleet — and the scheduler
// re-snapshots it during the sweep, admitting workers that join (or
// become ready) mid-flight and stealing back the shards of workers that
// leave, while recordings replicate worker-to-worker by rendezvous
// placement so the coordinator is not the bandwidth bottleneck. An
// empty membership runs the grid locally. See DESIGN.md "Distributed
// trace-replay sweeps" and "Fleet".
package cluster

import (
	"errors"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
)

// ErrNoWorkers is wrapped by Sweep when local fallback is disabled and
// the sweep has no worker to start on: the membership is empty or
// unavailable, or none of its members is reachable and ready.
var ErrNoWorkers = errors.New("cluster: no usable workers")

// ErrDeterminism is wrapped by Sweep when a sentinel shard re-executed
// on a second worker produced different canonical bytes — a worker is
// returning nondeterministic or corrupted results.
var ErrDeterminism = errors.New("cluster: sentinel determinism check failed")

// GridTrace is one recording in a sweep grid: the source program it was
// recorded from and the raw trace bytes. The content address (SHA-256 of
// Data) is computed by the coordinator; workers compile Source
// themselves (compilation is deterministic, pinned by the trace header's
// program hash) so recordings ship without their programs.
type GridTrace struct {
	Name   string
	Source string
	Data   []byte
}

// Grid is a full sweep: every trace replayed under every configuration.
// Opts supplies the compile-stage options (annotation policy, optimizer)
// and the run-stage tracer/selection policies shared by all cells; each
// Configs entry is the machine under analysis. Opts.Cfg is ignored.
type Grid struct {
	Traces  []GridTrace
	Configs []hydra.Config
	Opts    jrpm.Options
}

// VersionInfo is the body of GET /v1/version: enough for a coordinator
// to refuse a mixed-format worker with a clear error instead of a
// decode failure deep inside a shard.
type VersionInfo struct {
	Module      string `json:"module"`
	TraceFormat int    `json:"trace_format"`
	Go          string `json:"go,omitempty"`
}

// ShardRequest is the body of POST /v1/shards: replay the worker-cached
// recording TraceKey under Configs. Source and the compile-stage options
// identify the program; the run-stage options are sent pre-normalized
// and used verbatim so local and remote replays agree bit for bit.
type ShardRequest struct {
	TraceKey string                `json:"trace_key"`
	Source   string                `json:"source"`
	Optimize bool                  `json:"optimize"`
	Annot    annotate.Options      `json:"annot"`
	Tracer   core.Options          `json:"tracer"`
	Select   profile.SelectOptions `json:"select"`
	Configs  []hydra.Config        `json:"configs"`
	// Sources lists replica holders (worker base URLs) the executing
	// worker may fetch the recording from on a cache miss, so the
	// coordinator ships each trace's bytes at most once fleet-wide.
	Sources []string `json:"sources,omitempty"`
}

// ShardResponse is the body of a successful POST /v1/shards.
type ShardResponse struct {
	Outcomes []OutcomeRow `json:"outcomes"`
}

// Result is a completed cluster sweep. Outcomes is indexed
// [trace][config], congruent with Grid.Traces × Grid.Configs, and every
// row is exactly what EncodeOutcome(trace.Sweep(...)) yields locally.
type Result struct {
	Outcomes [][]OutcomeRow
	// Degraded reports that the membership named workers (or could not
	// be read) but none was reachable and ready, so the whole grid ran
	// locally. An empty membership runs locally without it.
	Degraded bool
	Metrics  Snapshot
}
