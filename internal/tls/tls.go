// Package tls is the thread-level-speculation execution simulator: it
// replays the iterations of a selected STL as speculative threads on the
// 4-CPU Hydra model and reports the resulting ("Actual", in Figure 11)
// execution time.
//
// The model follows the Hydra TLS semantics described in sections 1 and 3:
//
//   - threads (one loop iteration each) are started strictly in sequential
//     order on the next free CPU;
//   - a store by an older thread to a line an younger thread has already
//     read is a RAW violation: the younger thread restarts (Table 2
//     violation overhead) at the store;
//   - a dependent load that arrives after the store pays the store→load
//     communication latency;
//   - inter-thread dependent local variables are globalized and
//     synchronized by the recompiler, so they stall rather than violate;
//   - WAR and WAW hazards never cost anything (handled by the write
//     buffers);
//   - a thread whose speculative read/write state exceeds the Table 1
//     buffer limits stalls until it becomes the head (oldest) thread;
//   - threads commit in order; loop startup/shutdown and end-of-iteration
//     overheads come from Table 2.
//
// Violations only propagate from older to younger threads, so processing
// threads in sequential order with finalized predecessors is exact. The
// simulator is built on that: one streaming core takes a loop entry's
// threads one at a time, keeping only the current iteration plus the
// last-writer state its older threads left behind, on flat tables reused
// across threads and entries. Simulate feeds it recorded entries; a
// Recorder made by NewStreamRecorder feeds it during the VM run, each
// iteration as it closes, so nothing is kept. Both give the same Results.
package tls

import (
	"jrpm/internal/hydra"
)

// AccessKind distinguishes trace events.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	LocalLoad
	LocalStore
)

// Access is one memory or synchronized-local access at a relative cycle
// offset within its iteration.
type Access struct {
	Rel  int64
	Addr uint64 // byte address, or synthetic slot address for locals
	Kind AccessKind
	PC   int
}

// Iter is one recorded loop iteration.
type Iter struct {
	Len int64 // sequential cycles
	Acc []Access
}

// Entry is one recorded dynamic entry of a selected loop.
type Entry struct {
	Loop      int
	SeqCycles int64
	Iters     []Iter
}

// Result aggregates the simulation of all entries of one loop.
type Result struct {
	Loop           int
	Entries        int
	Threads        int64
	SeqCycles      int64 // sequential time of the recorded entries
	TLSCycles      int64 // simulated speculative time
	Violations     int64
	CommStalls     int64 // cycles lost waiting on store->load communication
	OverflowStalls int64 // threads that stalled on buffer overflow
	Speedup        float64
}

// ViolationRate reports RAW violations per speculative thread — the
// restart frequency an adaptive runtime watches to decide whether a
// decomposition is worth keeping (Prophet-style re-tiering: a loop whose
// threads restart constantly wastes the CPUs it occupies even when it
// still nets a speedup on paper).
func (r *Result) ViolationRate() float64 {
	if r.Threads == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Threads)
}

// OverflowRate reports buffer-overflow stalls per speculative thread.
func (r *Result) OverflowRate() float64 {
	if r.Threads == 0 {
		return 0
	}
	return float64(r.OverflowStalls) / float64(r.Threads)
}

// syncThreshold is how many violations a static load instruction causes
// before the recompiler synchronizes it ("inserting synchronization
// locks", section 3.2): afterwards that load waits for the producing store
// instead of violating.
const syncThreshold = 2

// Simulate runs the TLS timing simulation for every recorded entry,
// aggregated per loop. Violation learning (the synchronization insertion
// of section 3.2) is shared across entries, as the recompiler would patch
// the loop once. It feeds the entries through the same streaming core a
// Recorder made by NewStreamRecorder drives during the recording run.
func Simulate(entries []*Entry, cfg hydra.Config) map[int]*Result {
	s := newSim(cfg)
	for _, e := range entries {
		s.begin(e.Loop)
		for i := range e.Iters {
			s.thread(e.Iters[i].Len, e.Iters[i].Acc)
		}
		s.end(e.SeqCycles)
	}
	return s.results()
}

// sim is the TLS timing simulator. It takes one loop entry at a time —
// begin, then thread once per iteration in sequential order, then end —
// so it needs only the current iteration plus the last-writer state the
// entry's older threads left behind. All of its tables are reused across
// threads and entries; once warm, a thread allocates nothing.
type sim struct {
	cfg   hydra.Config
	out   map[int]*Result
	syncd map[int]int // violations per load PC, shared across entries

	// The open entry. Its counts reach out only at end, so an entry that
	// never closes leaves no Result.
	loop       int
	k          int // index of the next thread
	procFree   []int64
	commitPrev int64
	prevStart  int64
	violations int64
	commStalls int64
	overflows  int64
	// The time of the last store to each address by the entry's finalized
	// threads; a thread publishes its stores only after its own scans, so
	// every stamp is an older thread's. RAW dependences are tracked at
	// word granularity: Hydra's secondary cache write buffers hold
	// per-word speculative data and forward it to dependent loads, and the
	// TEST dependency analysis itself compares per-word store timestamps.
	// (Buffer capacity is still counted in cache lines, per Table 1.)
	stores table[int64] // heap: by word address
	locals table[int64] // synchronized locals: by slot address

	// Per-thread working state.
	times     []int64         // absolute time of every access
	written   table[struct{}] // words this thread stored (own-buffer forwarding)
	ownLocals table[struct{}] // locals this thread stored
	ldLines   table[struct{}] // distinct lines read
	stLines   table[struct{}] // distinct lines written
}

func newSim(cfg hydra.Config) *sim {
	return &sim{
		cfg:      cfg,
		out:      map[int]*Result{},
		syncd:    map[int]int{},
		procFree: make([]int64, cfg.CPUs),
	}
}

// begin opens an entry of loop.
func (s *sim) begin(loop int) {
	startup := s.cfg.Overheads.LoopStartup
	s.loop, s.k = loop, 0
	for i := range s.procFree {
		s.procFree[i] = startup // loop startup runs before thread 0
	}
	s.commitPrev, s.prevStart = startup, startup
	s.violations, s.commStalls, s.overflows = 0, 0, 0
	s.stores.reset()
	s.locals.reset()
}

// end closes the open entry, whose sequential time was seqCycles, and
// adds it to its loop's Result.
func (s *sim) end(seqCycles int64) {
	r := s.out[s.loop]
	if r == nil {
		r = &Result{Loop: s.loop}
		s.out[s.loop] = r
	}
	r.Entries++
	r.Threads += int64(s.k)
	r.SeqCycles += seqCycles
	r.TLSCycles += s.commitPrev + s.cfg.Overheads.LoopShutdown
	r.Violations += s.violations
	r.CommStalls += s.commStalls
	r.OverflowStalls += s.overflows
}

// results reports every closed entry, aggregated per loop.
func (s *sim) results() map[int]*Result {
	for _, r := range s.out {
		if r.TLSCycles > 0 {
			r.Speedup = float64(r.SeqCycles) / float64(r.TLSCycles)
		} else {
			r.Speedup = 1
		}
	}
	return s.out
}

// thread simulates the open entry's next iteration: length sequential
// cycles with accesses acc, sorted by Rel. acc is not retained.
func (s *sim) thread(length int64, acc []Access) {
	ov := s.cfg.Overheads
	k := s.k
	cpu := k % len(s.procFree)
	start := s.procFree[cpu]
	if start < s.prevStart {
		start = s.prevStart // threads are created in order
	}
	if k == 0 {
		start = ov.LoopStartup
	}
	if cap(s.times) < len(acc) {
		s.times = make([]int64, len(acc))
	}
	times := s.times[:len(acc)]

	// Fixed point over restarts: the thread's start only moves later,
	// which can only satisfy more dependences, so this terminates.
	var stall, comm int64
	for tries := 0; ; tries++ {
		restartAt, st, cm, pc := s.scan(acc, times, start)
		if restartAt < 0 {
			stall, comm = st, cm
			break
		}
		s.violations++
		s.syncd[pc]++
		if restartAt <= start {
			restartAt = start + 1 // guarantee progress
		}
		start = restartAt
		if tries > len(acc)+4 {
			// Defensive bound; with finitely many predecessor stores
			// each restart consumes one, so this cannot trigger.
			stall, comm = st, cm
			break
		}
	}
	s.commStalls += comm

	ovfStall := s.overflowStall(acc, times)
	finish := start + length + stall + ovfStall + ov.EndOfIter
	commit := max(finish, s.commitPrev)

	// Publish this thread's stores at their absolute times. Younger
	// threads must honour the latest store to a line, so the max time
	// wins.
	for ai := range acc {
		a := &acc[ai]
		var last *table[int64]
		key := a.Addr
		switch a.Kind {
		case Store:
			last, key = &s.stores, a.Addr&^3
		case LocalStore:
			last = &s.locals
		default:
			continue
		}
		if lw, added := last.put(key); added || times[ai] >= *lw {
			*lw = times[ai]
		}
	}

	s.procFree[cpu] = commit
	s.prevStart = start
	s.commitPrev = commit
	s.k++
}

// scan replays the thread's accesses from start time start with the
// stores of finalized predecessors visible, filling times with the
// absolute time of every access. It returns either a restart time (a RAW
// violation: an older thread's store landed after this thread already
// read the word) with the violating load's PC, or -1 with the accumulated
// stall and communication-wait cycles.
func (s *sim) scan(acc []Access, times []int64, start int64) (restartAt, stall, comm int64, restartPC int) {
	ov := s.cfg.Overheads
	s.written.reset()
	s.ownLocals.reset()
	for ai := range acc {
		a := &acc[ai]
		t := start + a.Rel + stall
		times[ai] = t
		var stored int64 // the producing store's time
		switch a.Kind {
		case Load:
			word := a.Addr &^ 3
			if s.written.has(word) {
				continue // forwarded from own store buffer
			}
			var ok bool
			if stored, ok = s.stores.get(word); !ok {
				continue
			}
			if stored > t && s.syncd[a.PC] < syncThreshold {
				clear(times[ai+1:]) // unscanned accesses have no time yet
				return stored + ov.Violation, stall, comm, a.PC
			}
		case Store:
			s.written.add(a.Addr &^ 3)
			continue
		case LocalLoad:
			if s.ownLocals.has(a.Addr) {
				continue // reads this thread's own (private) value
			}
			// Globalized + synchronized by the recompiler: wait, never
			// violate.
			var ok bool
			if stored, ok = s.locals.get(a.Addr); !ok {
				continue
			}
		case LocalStore:
			s.ownLocals.add(a.Addr)
			continue
		default:
			continue
		}
		if need := stored + ov.StoreLoadComm; need > t {
			// Either plain store->load latency, or a synchronized access
			// waiting out the producer.
			stall += need - t
			comm += need - t
			times[ai] = need
		}
	}
	return -1, stall, comm, 0
}

// overflowStall finds the first access at which the thread's
// distinct-line footprint exceeds a Table 1 buffer limit; from that point
// the thread stalls until it is the head thread. It returns that stall.
func (s *sim) overflowStall(acc []Access, times []int64) int64 {
	lim := s.cfg.Buffers
	if len(acc) <= min(lim.LoadLines, lim.StoreLines) {
		return 0 // no footprint can outgrow a buffer
	}
	s.ldLines.reset()
	s.stLines.reset()
	for ai := range acc {
		a := &acc[ai]
		over := false
		switch a.Kind {
		case Load:
			s.ldLines.add(a.Addr / hydra.LineSize)
			over = s.ldLines.n > lim.LoadLines
		case Store:
			s.stLines.add(a.Addr / hydra.LineSize)
			over = s.stLines.n > lim.StoreLines
		}
		if over {
			if at := times[ai]; s.commitPrev > at {
				s.overflows++
				return s.commitPrev - at
			}
			return 0
		}
	}
	return 0
}
