package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"jrpm"
	"jrpm/internal/fleet"
	"jrpm/internal/hydra"
	"jrpm/internal/service"
	"jrpm/internal/telemetry"
	"jrpm/internal/trace"
)

// Options tunes the coordinator. The zero value of every field is
// replaced by a sane default; fields documented as "< 0 disables" use
// the negative range as the explicit off switch.
type Options struct {
	// Membership supplies the worker set: fleet.Static for a fixed
	// address list, a fleet registry for a living fleet. The scheduler
	// re-snapshots it for the whole duration of a sweep: members that
	// appear or become ready mid-sweep are admitted and pick up shards,
	// members that disappear are retired and their shards stolen back.
	// Nil is an empty fleet: every sweep runs locally.
	Membership fleet.Membership
	// MembershipInterval is the membership re-snapshot (and replica
	// reconcile) period; <= 0 means 250ms.
	MembershipInterval time.Duration
	// Replicas is the desired number of fleet members holding each
	// recording, placed by rendezvous hashing and transferred
	// worker-to-worker; <= 1 keeps the single execution copy.
	Replicas int
	// ShardConfigs is the number of grid configs per shard; <= 0 means 4.
	ShardConfigs int
	// MaxAttempts bounds dispatch attempts per shard before giving up on
	// the cluster (local fallback, unless disabled); <= 0 means 4.
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential backoff between attempts
	// (base*2^n with ±50% jitter, capped); defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold consecutive failures open a worker's circuit
	// breaker for BreakerCooldown; defaults 3 / 2s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HedgeAfter re-dispatches a still-running shard to a second worker
	// after this long; <= 0 means 500ms, < 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeInterval is the straggler scan period; <= 0 means 25ms.
	HedgeInterval time.Duration
	// Sentinels is the number of leading shards re-executed on a second
	// worker for the determinism check; 0 means 1, < 0 disables.
	Sentinels int
	// ShardTimeout bounds one shard round trip; <= 0 means 60s.
	ShardTimeout time.Duration
	// PingTimeout bounds the version preflight; <= 0 means 2s.
	PingTimeout time.Duration
	// DisableLocalFallback turns exhausted-shard and no-worker local
	// execution into hard errors.
	DisableLocalFallback bool
	// DisableStealing pins every shard to its affinity worker (plus
	// retries and hedges); idle workers wait instead of stealing.
	DisableStealing bool
	// Seed fixes the jitter RNG (tests); 0 means 1.
	Seed int64
	// Logger receives scheduling events (worker exclusions, shard
	// failures, breaker trips, fallbacks); nil is silent. All methods of
	// a nil *telemetry.Logger are no-ops, so call sites don't guard.
	Logger *telemetry.Logger
}

func (o Options) withDefaults() Options {
	if o.Membership == nil {
		o.Membership = fleet.Static(nil)
	}
	if o.MembershipInterval <= 0 {
		o.MembershipInterval = 250 * time.Millisecond
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.ShardConfigs <= 0 {
		o.ShardConfigs = 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 500 * time.Millisecond
	}
	if o.HedgeInterval <= 0 {
		o.HedgeInterval = 25 * time.Millisecond
	}
	if o.Sentinels == 0 {
		o.Sentinels = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 60 * time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Coordinator drives distributed sweeps. It is stateless between Sweep
// calls except for the per-worker trace-residency bookkeeping (bounded,
// and dropped when a worker leaves the fleet), so one coordinator can
// run many grids against the same fleet and ship each recording to each
// worker at most once.
type Coordinator struct {
	opts Options

	clientMu sync.Mutex
	clients  map[string]*workerClient // by member ID, persistent across sweeps

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a coordinator that schedules over opts.Membership.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:    opts,
		clients: map[string]*workerClient{},
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
}

// client resolves (and caches) the HTTP client for a fleet member. A
// member that re-registers under the same ID with a new address gets a
// fresh client, dropping the stale residency memo with it.
func (c *Coordinator) client(m fleet.Member) *workerClient {
	base := m.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	c.clientMu.Lock()
	defer c.clientMu.Unlock()
	wc := c.clients[m.ID]
	if wc == nil || wc.base != base {
		wc = newWorkerClient(m.Addr, 0)
		wc.name = m.ID
		c.clients[m.ID] = wc
	}
	return wc
}

// dropClient forgets a member's client state entirely (fleet
// departure): the residency memo for a dead worker is useless, and
// keeping it across churning worker generations would grow without
// bound.
func (c *Coordinator) dropClient(id string) {
	c.clientMu.Lock()
	delete(c.clients, id)
	c.clientMu.Unlock()
}

func (c *Coordinator) jitter(d time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	return c.jitter(d)
}

// Sweep runs the grid: shard, dispatch, retry, hedge, steal, verify,
// merge. The returned outcomes are byte-identical (under Canonical) to
// EncodeOutcomes of a local trace.Sweep of every (trace, config) cell.
//
// When ctx carries a telemetry tracer (telemetry.WithTracer), the whole
// sweep is recorded as one distributed trace: a cluster.sweep root span
// with shard.dispatch / trace.push / shard.local children, propagated
// to workers over traceparent headers so their server-side spans join
// the same trace.
func (c *Coordinator) Sweep(ctx context.Context, grid Grid) (*Result, error) {
	return c.SweepStream(ctx, grid, nil)
}

// SweepStream is Sweep with a live row feed: onRow is invoked exactly
// once per (trace, config) cell, as the shard owning the cell
// completes, with the same row that later lands in Result.Outcomes.
// Rows arrive in completion order, not grid order. Callbacks are
// serialized (never concurrent) but must not block for long — they run
// on the scheduling path. A nil onRow is Sweep.
func (c *Coordinator) SweepStream(ctx context.Context, grid Grid, onRow func(trace, config int, row OutcomeRow)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := telemetry.StartSpan(ctx, "cluster.sweep")
	sp.SetInt("sweep.traces", int64(len(grid.Traces)))
	sp.SetInt("sweep.configs", int64(len(grid.Configs)))
	res, err := c.sweep(ctx, grid, onRow)
	sp.Fail(err)
	sp.End()
	return res, err
}

func (c *Coordinator) sweep(ctx context.Context, grid Grid, onRow func(int, int, OutcomeRow)) (*Result, error) {
	if len(grid.Traces) == 0 {
		return nil, errors.New("cluster: grid has no traces")
	}
	if len(grid.Configs) == 0 {
		return nil, errors.New("cluster: grid has no configs")
	}
	for i, gt := range grid.Traces {
		if len(gt.Data) == 0 {
			return nil, fmt.Errorf("cluster: trace %d (%s) has no recording bytes", i, gt.Name)
		}
	}
	grid.Opts = jrpm.Normalize(grid.Opts)
	keys := make([]string, len(grid.Traces))
	for i := range grid.Traces {
		keys[i] = service.TraceKeyOf(grid.Traces[i].Data)
	}

	metrics := newMetrics()
	members, merr := c.opts.Membership.Members(ctx)
	if merr != nil {
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: membership: %v", ErrNoWorkers, merr)
		}
		c.opts.Logger.WarnCtx(ctx, "cluster: membership unavailable, running grid locally", "err", merr)
		return c.localGrid(ctx, &grid, metrics, true, onRow)
	}
	if len(members) == 0 {
		// An empty fleet is plain local execution, not a degradation.
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: membership is empty", ErrNoWorkers)
		}
		return c.localGrid(ctx, &grid, metrics, false, onRow)
	}

	s := newSched(ctx, c, &grid, keys, metrics, onRow)
	admitted, err := s.run(members)
	if err != nil {
		return nil, err
	}
	if admitted == 0 {
		if c.opts.DisableLocalFallback {
			return nil, fmt.Errorf("%w: none of %d workers is reachable and ready", ErrNoWorkers, len(members))
		}
		return c.localGrid(ctx, &grid, metrics, true, onRow)
	}
	_, msp := telemetry.StartSpan(ctx, "sweep.merge")
	out, err := s.merge()
	msp.Fail(err)
	msp.End()
	if err != nil {
		return nil, err
	}
	snap := metrics.Snapshot()
	snap.TraceReplicas = s.replicaCounts()
	return &Result{Outcomes: out, Metrics: snap}, nil
}

// localGrid executes the whole grid in-process (an empty fleet, or no
// member reachable and ready).
func (c *Coordinator) localGrid(ctx context.Context, grid *Grid, metrics *Metrics, degraded bool, onRow func(int, int, OutcomeRow)) (*Result, error) {
	if degraded {
		c.opts.Logger.WarnCtx(ctx, "cluster: no usable workers, running grid locally")
	}
	ctx, sp := telemetry.StartSpan(ctx, "sweep.local_grid")
	defer sp.End()
	out := make([][]OutcomeRow, len(grid.Traces))
	for ti, gt := range grid.Traces {
		rows, err := sweepLocal(ctx, gt, grid.Configs, grid.Opts, 0)
		if err != nil {
			return nil, err
		}
		out[ti] = rows
		metrics.onLocalShard()
		if onRow != nil {
			for ci, row := range rows {
				onRow(ti, ci, row)
			}
		}
	}
	return &Result{Outcomes: out, Degraded: degraded, Metrics: metrics.Snapshot()}, nil
}

// sweepLocal compiles one recording's program and replays the recording
// under every config in-process, with at most workers replays at once
// (<= 0 means GOMAXPROCS). It is all of Local's work and the
// coordinator's fallback for a grid or a shard no worker can run. A
// replay cut short by ctx returns ctx's cause instead of partial rows.
func sweepLocal(ctx context.Context, gt GridTrace, cfgs []hydra.Config, opts jrpm.Options, workers int) ([]OutcomeRow, error) {
	compiled, err := jrpm.Compile(gt.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: compile %s: %w", gt.Name, err)
	}
	rows := EncodeOutcomes(compiled.SweepTrace(ctx, gt.Data, cfgs, opts, workers))
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return rows, nil
}

// SweepRecording adapts Sweep to the one-recording signature used by the
// internal/experiments ablation grids (experiments.GridSweeper).
func (c *Coordinator) SweepRecording(ctx context.Context, name, source string, data []byte, cfgs []hydra.Config, opts jrpm.Options) ([]OutcomeRow, error) {
	res, err := c.Sweep(ctx, Grid{
		Traces:  []GridTrace{{Name: name, Source: source, Data: data}},
		Configs: cfgs,
		Opts:    opts,
	})
	if err != nil {
		return nil, err
	}
	return res.Outcomes[0], nil
}

// Local runs sweep grids in-process with trace.Sweep; it satisfies the
// same GridSweeper shape as a Coordinator, so callers switch between
// local and distributed execution with one value.
type Local struct {
	// Workers bounds replay parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// SweepRecording compiles the program and replays the recording under
// every configuration locally.
func (l Local) SweepRecording(ctx context.Context, name, source string, data []byte, cfgs []hydra.Config, opts jrpm.Options) ([]OutcomeRow, error) {
	return sweepLocal(ctx, GridTrace{Name: name, Source: source, Data: data}, cfgs, jrpm.Normalize(opts), l.Workers)
}

// ---------------------------------------------------------------------------
// Scheduler

// task is one dispatchable shard: a contiguous config range of one grid
// trace. A sentinel task re-executes its target's range for the
// determinism check and never merges.
type task struct {
	trace  int
	lo, hi int

	sentinelOf *task   // non-nil on sentinel copies
	sentinels  []*task // on primaries: attached sentinel copies

	attempts int // finished (failed) attempts
	queued   int // copies sitting in worker queues
	inflight int // active attempts
	hedged   bool
	done     bool
	skipped  bool // sentinel abandoned (no worker could run it)
	rows     []OutcomeRow
	by       string // worker that produced rows
}

type flight struct {
	t      *task
	worker int
	start  time.Time
	cancel context.CancelFunc
}

// schedWorker is one fleet member's scheduling state for the duration
// of a sweep. Workers are appended as the fleet grows and flagged
// retired (never removed, so indices stay stable) as it shrinks.
type schedWorker struct {
	id           string
	client       *workerClient
	queue        []*task
	retired      bool
	consecFail   int
	breakerUntil time.Time
}

// traceStore tracks where each recording's replicas live during a
// sweep. All access is under sched.mu.
type traceStore struct {
	entries map[string]*storeEntry
	total   int64 // sum of holder counts across entries
}

type storeEntry struct {
	holders map[string]string // member ID -> base URL peers can fetch from
	pending map[string]bool   // replica transfers in flight, by target ID
	lost    bool              // a holder departed; next pull is a re-replication
	seeding bool              // a coordinator push (first placement) is in flight
}

type sched struct {
	c       *Coordinator
	grid    *Grid
	keys    []string
	metrics *Metrics
	onRow   func(int, int, OutcomeRow)

	mu            sync.Mutex
	cond          *sync.Cond
	ctx           context.Context
	workers       []*schedWorker
	byID          map[string]int
	flights       map[*flight]struct{}
	primaries     []*task
	remaining     int
	sentinelsLeft int
	err           error
	closed        bool
	running       int             // live worker goroutines
	localInflight int             // asynchronous local-fallback executions
	refused       map[string]bool // members refused this sweep (format mismatch)
	placed        bool            // the grid is queued; later admissions join mid-sweep
	timers        []*time.Timer
	store         *traceStore

	emitMu sync.Mutex // serializes onRow callbacks
}

// newSched shards the grid into tasks; run admits the workers and
// places the tasks on them.
func newSched(ctx context.Context, c *Coordinator, grid *Grid, keys []string, metrics *Metrics, onRow func(int, int, OutcomeRow)) *sched {
	s := &sched{
		c:       c,
		grid:    grid,
		keys:    keys,
		metrics: metrics,
		onRow:   onRow,
		ctx:     ctx,
		byID:    map[string]int{},
		flights: map[*flight]struct{}{},
		refused: map[string]bool{},
		store:   &traceStore{entries: map[string]*storeEntry{}},
	}
	s.cond = sync.NewCond(&s.mu)
	for _, key := range keys {
		if s.store.entries[key] == nil {
			s.store.entries[key] = &storeEntry{holders: map[string]string{}, pending: map[string]bool{}}
		}
	}
	size := c.opts.ShardConfigs
	for ti := range grid.Traces {
		for lo := 0; lo < len(grid.Configs); lo += size {
			hi := lo + size
			if hi > len(grid.Configs) {
				hi = len(grid.Configs)
			}
			s.primaries = append(s.primaries, &task{trace: ti, lo: lo, hi: hi})
		}
	}
	s.remaining = len(s.primaries)
	return s
}

// placeLocked queues every shard on the initially admitted workers.
// Trace affinity: all of a trace's shards start on one worker, so each
// recording ships once; idle workers rebalance by stealing (and then
// pull the recording themselves, once). The leading shards get sentinel
// copies on a second worker.
func (s *sched) placeLocked() {
	s.placed = true
	w := len(s.workers)
	for _, t := range s.primaries {
		s.enqueueLocked(t.trace%w, t)
	}
	if w < 2 || s.c.opts.Sentinels <= 0 {
		return
	}
	n := s.c.opts.Sentinels
	if n > len(s.primaries) {
		n = len(s.primaries)
	}
	for _, p := range s.primaries[:n] {
		sent := &task{trace: p.trace, lo: p.lo, hi: p.hi, sentinelOf: p}
		p.sentinels = append(p.sentinels, sent)
		s.enqueueLocked((p.trace+1)%w, sent)
		s.sentinelsLeft++
	}
}

func (s *sched) enqueueLocked(w int, t *task) {
	t.queued++
	s.workers[w].queue = append(s.workers[w].queue, t)
}

// terminalLocked reports whether worker loops should exit.
func (s *sched) terminalLocked() bool {
	return s.err != nil || s.ctx.Err() != nil || (s.remaining == 0 && s.sentinelsLeft == 0)
}

// leastLoadedLocked returns the live worker with the shortest queue,
// preferring any worker over avoid but falling back to avoid when it is
// the only one left; -1 when no live worker exists.
func (s *sched) leastLoadedLocked(avoid int) int {
	best := -1
	for i, w := range s.workers {
		if w.retired || i == avoid {
			continue
		}
		if best < 0 || len(w.queue) < len(s.workers[best].queue) {
			best = i
		}
	}
	if best < 0 && avoid >= 0 && avoid < len(s.workers) && !s.workers[avoid].retired {
		best = avoid
	}
	return best
}

// next blocks until worker w has a shard to run (its own queue first,
// then stealing from the longest other queue) or the sweep is over (or
// the worker itself has been retired from the fleet).
func (s *sched) next(w int) (*task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.terminalLocked() || s.workers[w].retired {
			return nil, false
		}
		// Circuit breaker: while open, this worker takes no new work. The
		// sleep is chunked so a completed sweep never waits out a cooldown.
		if wait := time.Until(s.workers[w].breakerUntil); wait > 0 {
			if wait > 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			s.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-s.ctx.Done():
			}
			s.mu.Lock()
			continue
		}
		if t := s.popLocked(w); t != nil {
			return t, false
		}
		// Work stealing: this worker drained early; take the oldest
		// queued shard from the most loaded live peer.
		best, bestLen := -1, 0
		if !s.c.opts.DisableStealing {
			for i, pw := range s.workers {
				if i != w && !pw.retired && len(pw.queue) > bestLen {
					best, bestLen = i, len(pw.queue)
				}
			}
		}
		if best >= 0 {
			if t := s.popLocked(best); t != nil {
				return t, true
			}
			continue
		}
		s.cond.Wait()
	}
}

// popLocked pops the front of worker w's queue, skipping tasks already
// completed by another copy or abandoned.
func (s *sched) popLocked(w int) *task {
	q := s.workers[w].queue
	for len(q) > 0 {
		t := q[0]
		q = q[1:]
		s.workers[w].queue = q
		t.queued--
		if !t.done && !t.skipped {
			return t
		}
	}
	return nil
}

// spawnLocked starts worker w's dispatch loop.
func (s *sched) spawnLocked(w int) {
	s.running++
	go s.workerLoop(w)
}

func (s *sched) workerLoop(w int) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		t, stolen := s.next(w)
		if t == nil {
			return
		}
		_, wc := s.worker(w)
		s.metrics.onDispatch(wc.name, stolen)
		s.attempt(w, t)
	}
}

// worker returns worker w and its current client. admit may grow
// s.workers, or revive a retired slot with a new client while that
// slot's previous dispatch loop is still finishing an attempt, so both
// are read under s.mu.
func (s *sched) worker(w int) (*schedWorker, *workerClient) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.workers[w]
	return sw, sw.client
}

// run admits the initial membership snapshot, places the grid on the
// admitted workers and schedules until the grid is merged or failed. It
// returns how many workers the snapshot admitted; with none admitted
// (and nothing refused) it schedules nothing, and the caller decides
// the grid's fate. The completion signal is the task ledger (remaining
// + sentinelsLeft), not worker-goroutine exit: workers are admitted
// and retired while the sweep runs.
func (s *sched) run(members []fleet.Member) (int, error) {
	ctx := s.ctx
	refusals := s.admit(members)
	s.mu.Lock()
	admitted := len(s.workers)
	if len(refusals) > 0 {
		// A reachable worker speaking another trace format fails the
		// sweep rather than silently shrinking the fleet.
		s.err = errors.Join(refusals...)
	} else if admitted > 0 {
		s.placeLocked()
	}
	s.cond.Broadcast() // admitted loops wait for work or the verdict
	s.mu.Unlock()
	if admitted == 0 {
		return 0, errors.Join(refusals...)
	}
	telemetry.SpanFrom(ctx).SetInt("sweep.workers", int64(admitted))

	stop := make(chan struct{})
	go func() { // wake sleepers on cancellation
		select {
		case <-ctx.Done():
			s.cond.Broadcast()
		case <-stop:
		}
	}()
	if s.c.opts.HedgeAfter > 0 {
		go s.hedgeMonitor(stop)
	}
	go s.fleetMonitor(stop)

	s.mu.Lock()
	for !s.terminalLocked() {
		s.cond.Wait()
	}
	s.mu.Unlock()
	close(stop)

	s.mu.Lock()
	// Drain straggler goroutines (worker loops see the terminal state
	// and exit; async local fallbacks finish) before merge reads tasks.
	for s.running > 0 || s.localInflight > 0 {
		s.cond.Wait()
	}
	s.closed = true
	for _, tm := range s.timers {
		tm.Stop()
	}
	err := s.err
	s.mu.Unlock()
	if err == nil && ctx.Err() != nil {
		err = context.Cause(ctx)
	}
	return admitted, err
}

// attempt runs one dispatch of t on worker w and routes the outcome
// through the completion / retry / breaker machinery.
func (s *sched) attempt(w int, t *task) {
	s.mu.Lock()
	if t.done || t.skipped || s.terminalLocked() {
		s.mu.Unlock()
		return
	}
	actx, cancel := context.WithTimeout(s.ctx, s.c.opts.ShardTimeout)
	fl := &flight{t: t, worker: w, start: time.Now(), cancel: cancel}
	t.inflight++
	s.flights[fl] = struct{}{}
	s.mu.Unlock()

	rows, err := s.execute(actx, w, t)
	cancel()

	s.mu.Lock()
	delete(s.flights, fl)
	t.inflight--
	if t.done || t.skipped { // hedge loser: a peer already completed this shard
		s.mu.Unlock()
		return
	}
	sw := s.workers[w]
	name := sw.client.name
	if err == nil {
		sw.consecFail = 0
		s.completeLocked(t, rows, name)
		s.mu.Unlock()
		s.emit(t)
		s.metrics.onComplete(name, time.Since(fl.start))
		return
	}

	// Failure path.
	var breakerOpened, retried, localRun bool
	sw.consecFail++
	if sw.consecFail >= s.c.opts.BreakerThreshold && time.Now().After(sw.breakerUntil) {
		sw.breakerUntil = time.Now().Add(s.c.opts.BreakerCooldown)
		sw.consecFail = 0 // half-open after cooldown: one probe re-trips it after Threshold more
		breakerOpened = true
	}
	if s.ctx.Err() != nil {
		s.cond.Broadcast()
		s.mu.Unlock()
		s.metrics.onFailure(name)
		return
	}
	t.attempts++
	switch {
	case t.inflight > 0 || t.queued > 0:
		// Another copy of this shard is still in play; let it decide.
	case t.attempts >= s.c.opts.MaxAttempts:
		if t.sentinelOf != nil {
			// A sentinel that cannot run is a skipped check, not a failure.
			t.skipped = true
			s.sentinelsLeft--
			s.cond.Broadcast()
		} else if !s.c.opts.DisableLocalFallback {
			localRun = true
		} else {
			s.err = fmt.Errorf("cluster: shard (trace %d, configs [%d,%d)) failed %d attempts, last: %w",
				t.trace, t.lo, t.hi, t.attempts, err)
			s.cond.Broadcast()
		}
	default:
		retried = true
		t.queued++ // reserved until the timer requeues it
		delay := s.c.backoff(t.attempts)
		avoid := w
		tm := time.AfterFunc(delay, func() { s.requeue(t, avoid) })
		s.timers = append(s.timers, tm)
	}
	attempts := t.attempts
	sctx := s.ctx
	s.mu.Unlock()

	log := s.c.opts.Logger
	log.WarnCtx(sctx, "cluster: shard attempt failed",
		"worker", name, "trace", t.trace, "lo", t.lo, "hi", t.hi,
		"attempt", attempts, "err", err)
	s.metrics.onFailure(name)
	if breakerOpened {
		s.metrics.onBreakerOpen()
		log.WarnCtx(sctx, "cluster: circuit breaker opened",
			"worker", name, "cooldown", s.c.opts.BreakerCooldown)
	}
	if retried {
		s.metrics.onRetry()
	}
	if localRun {
		log.WarnCtx(sctx, "cluster: shard exhausted cluster attempts, running locally",
			"trace", t.trace, "lo", t.lo, "hi", t.hi)
		s.localShard(t)
	}
}

// emit streams a completed primary's rows to the SweepStream callback.
// Called outside sched.mu (rows are immutable once done); the emit
// mutex keeps callbacks serialized.
func (s *sched) emit(t *task) {
	if s.onRow == nil || t.sentinelOf != nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for i, row := range t.rows {
		s.onRow(t.trace, t.lo+i, row)
	}
}

// completeLocked records a shard's rows, cancels competing attempts, and
// fires the sentinel comparison when both sides are in.
func (s *sched) completeLocked(t *task, rows []OutcomeRow, by string) {
	t.done = true
	t.rows = rows
	t.by = by
	for fl := range s.flights {
		if fl.t == t {
			fl.cancel()
		}
	}
	if t.sentinelOf != nil {
		s.sentinelsLeft--
		if t.sentinelOf.done {
			s.checkSentinelLocked(t.sentinelOf, t)
		}
	} else {
		s.remaining--
		for _, sent := range t.sentinels {
			if sent.done {
				s.checkSentinelLocked(t, sent)
			}
		}
	}
	s.cond.Broadcast()
}

// checkSentinelLocked compares a primary shard's canonical bytes with
// its sentinel re-execution.
func (s *sched) checkSentinelLocked(primary, sent *task) {
	s.metrics.onSentinel()
	pb, perr := Canonical(primary.rows)
	sb, serr := Canonical(sent.rows)
	if perr != nil || serr != nil {
		s.err = fmt.Errorf("%w: encoding failed (%v, %v)", ErrDeterminism, perr, serr)
	} else if !bytes.Equal(pb, sb) {
		s.err = fmt.Errorf("%w: shard (trace %d, configs [%d,%d)) differs between %s and %s",
			ErrDeterminism, primary.trace, primary.lo, primary.hi, primary.by, sent.by)
	}
	if s.err != nil {
		s.cond.Broadcast()
	}
}

// reassignLocked routes a dequeued task to a live worker, or — when the
// fleet has none — to the local fallback (primaries) or a skipped check
// (sentinels). Tasks with another copy still in play are dropped; that
// copy decides.
func (s *sched) reassignLocked(t *task, avoid int) {
	if t.done || t.skipped {
		return
	}
	if best := s.leastLoadedLocked(avoid); best >= 0 {
		s.enqueueLocked(best, t)
		return
	}
	if t.inflight > 0 || t.queued > 0 {
		return
	}
	if t.sentinelOf != nil {
		t.skipped = true
		s.sentinelsLeft--
		return
	}
	if s.c.opts.DisableLocalFallback {
		if s.err == nil {
			s.err = fmt.Errorf("cluster: shard (trace %d, configs [%d,%d)) stranded: no live workers remain",
				t.trace, t.lo, t.hi)
		}
		return
	}
	s.goLocalLocked(t)
}

// goLocalLocked runs the local fallback for t on its own goroutine,
// tracked so run() never merges while one is still writing.
func (s *sched) goLocalLocked(t *task) {
	s.localInflight++
	go func() {
		s.localShard(t)
		s.mu.Lock()
		s.localInflight--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
}

// requeue puts a retried shard back on the least-loaded live worker,
// avoiding the one that just failed it when there is a choice.
func (s *sched) requeue(t *task, avoid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.queued-- // drop the reservation taken when the timer was armed
	if s.closed || t.done || s.terminalLocked() {
		s.cond.Broadcast()
		return
	}
	s.reassignLocked(t, avoid)
	s.cond.Broadcast()
}

// hedgeMonitor scans in-flight shards and re-dispatches stragglers to a
// second worker; the first result wins and the loser is canceled.
func (s *sched) hedgeMonitor(stop <-chan struct{}) {
	tick := time.NewTicker(s.c.opts.HedgeInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var hedges int
		s.mu.Lock()
		if s.terminalLocked() {
			s.mu.Unlock()
			return
		}
		for fl := range s.flights {
			t := fl.t
			if t.done || t.hedged || t.queued > 0 || time.Since(fl.start) < s.c.opts.HedgeAfter {
				continue
			}
			best := s.leastLoadedLocked(fl.worker)
			if best < 0 || best == fl.worker {
				continue
			}
			t.hedged = true
			s.enqueueLocked(best, t)
			hedges++
		}
		if hedges > 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		for i := 0; i < hedges; i++ {
			s.metrics.onHedge()
		}
	}
}

// ---------------------------------------------------------------------------
// Fleet dynamics

// fleetMonitor periodically re-snapshots the membership and reconciles
// replica placement (Replicas > 1).
func (s *sched) fleetMonitor(stop <-chan struct{}) {
	tick := time.NewTicker(s.c.opts.MembershipInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		s.reconcile()
		if s.c.opts.Replicas > 1 {
			s.replicateTick()
		}
	}
}

// reconcile diffs the current membership snapshot against the
// scheduler's worker set: departed members are retired (their shards
// stolen back), members not yet admitted — new, or unreachable or
// draining when last probed — go through admit.
func (s *sched) reconcile() {
	mctx, cancel := context.WithTimeout(s.ctx, s.c.opts.PingTimeout)
	members, err := s.c.opts.Membership.Members(mctx)
	cancel()
	if err != nil {
		// A registry blip must not retire live workers; try again next
		// tick.
		s.c.opts.Logger.DebugCtx(s.ctx, "cluster: membership snapshot failed", "err", err)
		return
	}
	seen := map[string]bool{}
	for _, m := range members {
		seen[m.ID] = true
	}

	var joins []fleet.Member
	s.mu.Lock()
	if s.closed || s.terminalLocked() {
		s.mu.Unlock()
		return
	}
	for _, w := range s.workers {
		if !w.retired && !seen[w.id] {
			s.retireLocked(w)
		}
	}
	for _, m := range members {
		if s.refused[m.ID] {
			continue
		}
		if idx, ok := s.byID[m.ID]; ok && !s.workers[idx].retired {
			continue
		}
		joins = append(joins, m)
	}
	s.mu.Unlock()
	s.admit(joins)
}

// retireLocked removes a departed worker from scheduling: its queued
// shards move to live workers (or the local fallback), its in-flight
// attempts are canceled so the retry machinery re-routes them, and its
// residency memo and replica holdings are dropped.
func (s *sched) retireLocked(w *schedWorker) {
	if w.retired {
		return
	}
	w.retired = true
	idx := s.byID[w.id]
	w.client.forgetAll()
	s.c.dropClient(w.id)
	for _, e := range s.store.entries {
		if e.holders[w.id] != "" {
			delete(e.holders, w.id)
			e.lost = true
			s.store.total--
		}
		delete(e.pending, w.id)
	}
	s.metrics.setReplicaGauge(s.store.total)
	for fl := range s.flights {
		if fl.worker == idx {
			fl.cancel()
		}
	}
	q := w.queue
	w.queue = nil
	for _, t := range q {
		t.queued--
		s.reassignLocked(t, idx)
	}
	s.metrics.onMemberLeave()
	s.c.opts.Logger.WarnCtx(s.ctx, "cluster: worker left the fleet, shards stolen back",
		"worker", w.client.name, "requeued", len(q))
	s.cond.Broadcast()
}

// admit probes members in parallel — version, then readiness — and
// admits the ready ones in membership order, so worker indices (and
// with them trace affinity) are deterministic. Admitting adds the
// member's slot, or revives its retired one, and starts its dispatch
// loop; a worker admitted after the grid was placed has an empty queue
// and picks up work by stealing, retries and hedges. A reachable member
// speaking another trace format is refused for the rest of the sweep
// and returned as an error; unreachable and draining members are left
// out until a later reconcile finds them ready.
func (s *sched) admit(members []fleet.Member) (refusals []error) {
	if len(members) == 0 {
		return nil
	}
	type probe struct {
		wc         *workerClient
		vi         VersionInfo
		verr, rerr error
		ready      bool
	}
	probes := make([]probe, len(members))
	pctx, cancel := context.WithTimeout(s.ctx, s.c.opts.PingTimeout)
	var wg sync.WaitGroup
	for i, m := range members {
		p := &probes[i]
		p.wc = s.c.client(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.vi, p.verr = p.wc.version(pctx)
			if p.verr == nil {
				p.ready, p.rerr = p.wc.ready(pctx)
			}
		}()
	}
	wg.Wait()
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	// Exclusions matter at sweep start; afterwards the same member is
	// re-probed every tick, so they drop to debug.
	lvl := telemetry.LevelWarn
	if s.placed {
		lvl = telemetry.LevelDebug
	}
	log := s.c.opts.Logger
	for i, m := range members {
		p := probes[i]
		switch {
		case p.verr != nil:
			log.LogCtx(s.ctx, lvl, "cluster: worker unreachable, excluded", "worker", m.ID, "err", p.verr)
			continue
		case p.vi.TraceFormat != trace.Version:
			s.refused[m.ID] = true
			log.WarnCtx(s.ctx, "cluster: worker refused (trace format mismatch)",
				"worker", m.ID, "worker_format", p.vi.TraceFormat, "coordinator_format", trace.Version)
			refusals = append(refusals, fmt.Errorf(
				"worker %s: trace format v%d, coordinator speaks v%d (module %q) — refusing mixed-format worker",
				m.ID, p.vi.TraceFormat, trace.Version, p.vi.Module))
			continue
		case p.rerr != nil:
			log.LogCtx(s.ctx, lvl, "cluster: worker readiness probe failed, excluded", "worker", m.ID, "err", p.rerr)
			continue
		case !p.ready:
			log.LogCtx(s.ctx, lvl, "cluster: worker draining, excluded", "worker", m.ID)
			continue
		case s.closed || s.terminalLocked():
			continue
		}
		idx, ok := s.byID[m.ID]
		if !ok {
			idx = len(s.workers)
			s.byID[m.ID] = idx
			s.workers = append(s.workers, &schedWorker{id: m.ID, retired: true})
		}
		w := s.workers[idx]
		if !w.retired {
			continue // already admitted: listed twice in the snapshot
		}
		w.retired, w.client, w.consecFail, w.breakerUntil = false, p.wc, 0, time.Time{}
		s.spawnLocked(idx)
		if s.placed {
			s.metrics.onMemberJoin()
			log.InfoCtx(s.ctx, "cluster: worker joined the fleet mid-sweep", "worker", m.ID)
		}
	}
	s.cond.Broadcast()
	return refusals
}

// replicateTick drives replica placement toward Replicas holders per
// recording, choosing targets by rendezvous hashing over live workers
// and instructing them to pull from existing holders (never the
// coordinator).
func (s *sched) replicateTick() {
	type pullJob struct {
		key     string
		target  *schedWorker
		client  *workerClient
		sources []string
		relost  bool
	}
	var jobs []pullJob
	s.mu.Lock()
	if s.closed || s.terminalLocked() {
		s.mu.Unlock()
		return
	}
	var live []fleet.Member
	for _, w := range s.workers {
		if !w.retired {
			live = append(live, fleet.Member{ID: w.id, Addr: w.client.base})
		}
	}
	if len(live) == 0 {
		s.mu.Unlock()
		return
	}
	for key, e := range s.store.entries {
		if len(e.holders) == 0 {
			// Not placed anywhere yet; the first shard execution seeds it.
			continue
		}
		want := s.c.opts.Replicas
		if want > len(live) {
			want = len(live)
		}
		if len(e.holders)+len(e.pending) >= want {
			continue
		}
		for _, m := range fleet.Placement(key, live, want) {
			if e.holders[m.ID] != "" || e.pending[m.ID] {
				continue
			}
			sources := s.store.sourcesLocked(key, m.ID)
			if len(sources) == 0 {
				continue
			}
			e.pending[m.ID] = true
			target := s.workers[s.byID[m.ID]]
			jobs = append(jobs, pullJob{key: key, target: target, client: target.client, sources: sources, relost: e.lost})
			if len(e.holders)+len(e.pending) >= want {
				break
			}
		}
	}
	s.mu.Unlock()
	for _, j := range jobs {
		go s.replicateOne(j.key, j.target, j.client, j.sources, j.relost)
	}
}

// replicateOne moves one replica worker-to-worker: the target, reached
// through wc, pulls the recording from an existing holder.
func (s *sched) replicateOne(key string, target *schedWorker, wc *workerClient, sources []string, relost bool) {
	ctx, cancel := context.WithTimeout(s.ctx, s.c.opts.ShardTimeout)
	defer cancel()
	ctx, sp := telemetry.StartSpan(ctx, "trace.replicate")
	sp.SetAttr("worker", wc.name)
	sp.SetAttr("trace.key", key)
	err := wc.pull(ctx, key, sources)
	sp.Fail(err)
	sp.End()

	s.mu.Lock()
	e := s.store.entries[key]
	delete(e.pending, target.id)
	placed := err == nil && !target.retired
	if placed {
		if e.holders[target.id] == "" {
			e.holders[target.id] = wc.base
			s.store.total++
			s.metrics.setReplicaGauge(s.store.total)
		}
		e.lost = false
	}
	s.mu.Unlock()
	if placed {
		s.metrics.onReplicaPull(relost)
	} else if err != nil {
		s.c.opts.Logger.DebugCtx(s.ctx, "cluster: replica pull failed",
			"worker", wc.name, "trace", key, "err", err)
	}
}

// addHolder records that worker sw, reached through wc, now holds key's
// recording.
func (s *sched) addHolder(key string, sw *schedWorker, wc *workerClient) {
	s.mu.Lock()
	if e := s.store.entries[key]; e != nil && e.holders[sw.id] == "" {
		e.holders[sw.id] = wc.base
		s.store.total++
		s.metrics.setReplicaGauge(s.store.total)
	}
	s.mu.Unlock()
	wc.markResident(key)
}

// dropHolder forgets a (key, worker) placement after the worker denied
// holding the recording.
func (s *sched) dropHolder(key, id string) {
	s.mu.Lock()
	if e := s.store.entries[key]; e != nil && e.holders[id] != "" {
		delete(e.holders, id)
		e.lost = true
		s.store.total--
		s.metrics.setReplicaGauge(s.store.total)
	}
	s.mu.Unlock()
}

// sourcesLocked lists base URLs of key's holders, excluding one member,
// in deterministic order.
func (st *traceStore) sourcesLocked(key, exclude string) []string {
	e := st.entries[key]
	if e == nil {
		return nil
	}
	ids := make([]string, 0, len(e.holders))
	for id := range e.holders {
		if id != exclude {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = e.holders[id]
	}
	return out
}

// replicaCounts snapshots holders-per-trace for the final metrics.
func (s *sched) replicaCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.store.entries))
	for key, e := range s.store.entries {
		out[key] = len(e.holders)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shard execution

// execute is one network attempt: make the recording available on the
// worker, then run the shard. The coordinator ships bytes only when no
// fleet member holds the recording yet; otherwise the worker is handed
// the holders' addresses and fetches peer-to-peer on a cache miss. A
// worker that evicted the trace between placement and dispatch gets
// exactly one coordinator re-push as the liveness backstop.
func (s *sched) execute(ctx context.Context, w int, t *task) (rows []OutcomeRow, err error) {
	sw, wc := s.worker(w)
	ctx, sp := telemetry.StartSpan(ctx, "shard.dispatch")
	sp.SetAttr("worker", wc.name)
	sp.SetInt("shard.trace", int64(t.trace))
	sp.SetInt("shard.lo", int64(t.lo))
	sp.SetInt("shard.hi", int64(t.hi))
	defer func() { sp.Fail(err); sp.End() }()

	key := s.keys[t.trace]
	data := s.grid.Traces[t.trace].Data
	// First placement of a recording is serialized through the seeding
	// gate: exactly one worker receives the coordinator push, everyone
	// else waits for a holder to exist and then fetches peer-to-peer.
	// Without the gate, a worker stealing a shard at sweep start races
	// the affinity worker's first push and the coordinator ships the
	// bytes twice.
	var sources []string
	seeder := false
	s.mu.Lock()
	e := s.store.entries[key]
	for {
		if s.terminalLocked() {
			s.mu.Unlock()
			if cerr := s.ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, errors.New("cluster: sweep already terminal")
		}
		if e.holders[sw.id] != "" {
			break
		}
		if srcs := s.store.sourcesLocked(key, sw.id); len(srcs) > 0 {
			sources = srcs
			break
		}
		if !e.seeding {
			e.seeding, seeder = true, true
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
	if seeder {
		pushed, perr := wc.ensureTrace(ctx, key, data)
		if pushed {
			s.metrics.onPush(wc.name)
		}
		s.mu.Lock()
		e.seeding = false
		s.cond.Broadcast()
		s.mu.Unlock()
		if perr != nil {
			return nil, perr
		}
		s.addHolder(key, sw, wc)
	}
	req := s.shardReq(t)
	req.Sources = sources
	rows, err = wc.runShard(ctx, req)
	if errors.Is(err, errTraceMissing) {
		// Peer fetch failed or an eviction raced the dispatch: one
		// coordinator re-push keeps the shard alive.
		wc.forget(key)
		s.dropHolder(key, sw.id)
		pushed, perr := wc.ensureTrace(ctx, key, data)
		if pushed {
			s.metrics.onPush(wc.name)
		}
		if perr != nil {
			return nil, perr
		}
		rows, err = wc.runShard(ctx, req)
	}
	if err == nil {
		s.addHolder(key, sw, wc)
	}
	return rows, err
}

func (s *sched) shardReq(t *task) ShardRequest {
	gt := s.grid.Traces[t.trace]
	return ShardRequest{
		TraceKey: s.keys[t.trace],
		Source:   gt.Source,
		Optimize: s.grid.Opts.Optimize,
		Annot:    s.grid.Opts.Annot,
		Tracer:   s.grid.Opts.Tracer,
		Select:   s.grid.Opts.Select,
		Configs:  s.grid.Configs[t.lo:t.hi],
	}
}

// localShard executes one exhausted shard in-process — the graceful
// degradation path when the fleet cannot run it.
func (s *sched) localShard(t *task) {
	ctx, sp := telemetry.StartSpan(s.ctx, "shard.local")
	sp.SetInt("shard.trace", int64(t.trace))
	sp.SetInt("shard.lo", int64(t.lo))
	sp.SetInt("shard.hi", int64(t.hi))
	rows, err := sweepLocal(ctx, s.grid.Traces[t.trace], s.grid.Configs[t.lo:t.hi], s.grid.Opts, 0)
	sp.Fail(err)
	sp.End()
	s.mu.Lock()
	if t.done {
		s.mu.Unlock()
		return
	}
	if err != nil {
		if s.err == nil && s.ctx.Err() == nil {
			s.err = fmt.Errorf("cluster: local fallback for shard (trace %d, configs [%d,%d)): %w", t.trace, t.lo, t.hi, err)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.metrics.onLocalShard()
	s.completeLocked(t, rows, "local")
	s.mu.Unlock()
	s.emit(t)
}

// merge assembles the [trace][config] outcome matrix; every cell must be
// produced by exactly one completed primary shard.
func (s *sched) merge() ([][]OutcomeRow, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]OutcomeRow, len(s.grid.Traces))
	for ti := range out {
		out[ti] = make([]OutcomeRow, len(s.grid.Configs))
	}
	filled := make([][]bool, len(s.grid.Traces))
	for ti := range filled {
		filled[ti] = make([]bool, len(s.grid.Configs))
	}
	for _, t := range s.primaries {
		if !t.done {
			return nil, fmt.Errorf("cluster: internal: shard (trace %d, configs [%d,%d)) never completed", t.trace, t.lo, t.hi)
		}
		if len(t.rows) != t.hi-t.lo {
			return nil, fmt.Errorf("cluster: internal: shard (trace %d, configs [%d,%d)) has %d rows", t.trace, t.lo, t.hi, len(t.rows))
		}
		for i, row := range t.rows {
			ci := t.lo + i
			if filled[t.trace][ci] {
				return nil, fmt.Errorf("cluster: internal: config (trace %d, config %d) merged twice", t.trace, ci)
			}
			filled[t.trace][ci] = true
			out[t.trace][ci] = row
		}
	}
	for ti := range filled {
		for ci, ok := range filled[ti] {
			if !ok {
				return nil, fmt.Errorf("cluster: internal: config (trace %d, config %d) lost", ti, ci)
			}
		}
	}
	return out, nil
}
