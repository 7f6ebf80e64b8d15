package tls

import (
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// Recorder is a VM listener that captures per-iteration memory traces for
// a set of selected loops, feeding the TLS timing simulation. The selected
// set is exclusive (no loop is an ancestor or descendant of another), so
// at most one recording is active at a time; if a selected loop is entered
// while another recording is active (possible only through a rare
// secondary dynamic parent), its events simply fold into the active
// recording, matching the hardware's one-decomposition-at-a-time rule.
//
// Local-variable events are filtered to the selected loop's own globalized
// variables (its AnnLocals, in its activation frame): those are the
// variables the recompiler synchronizes for this decomposition. Events
// from nested loops' annotations describe other decompositions — their
// variables are private or inductive for the selected loop — and callee
// locals live in per-call frames; both must not serialize the simulated
// threads.
//
// A recorder has one sink, fixed by its constructor. NewRecorder keeps
// every closed entry in Entries, for Simulate to run later. A recorder
// made by NewStreamRecorder keeps no entries: it buffers only the current
// iteration's accesses and hands each iteration to the TLS simulator as
// it closes, the same core Simulate drives, so Results equals Simulate
// over the entries NewRecorder would have kept. An entry still open when
// the run ends contributes nothing either way.
type Recorder struct {
	// Entries holds the closed entries, in closing order; always empty
	// for a streaming recorder.
	Entries []*Entry

	prog     *tir.Program
	selected []bool // by loop id
	sim      *sim   // streaming sink; nil keeps Entries

	active      bool
	entry       *Entry // the open entry (Entries sink)
	activeLoop  int
	activeFrame uint64
	allowed     []bool // by slot: AnnLocals of the active selected loop
	entryStart  int64
	iterStart   int64
	acc         []Access // the current iteration's accesses
	depth       int      // nested entries of the same selected loop (recursion)
}

// NewRecorder records traces for the given selected loop ids of prog,
// keeping every closed entry in Entries.
func NewRecorder(prog *tir.Program, selected []int) *Recorder {
	r := &Recorder{prog: prog, selected: make([]bool, len(prog.Loops))}
	for _, id := range selected {
		if uint(id) < uint(len(r.selected)) {
			r.selected[id] = true
		}
	}
	return r
}

// NewStreamRecorder records the given selected loop ids of prog straight
// into the TLS simulation on cfg: each iteration is simulated as it
// closes, and Results reports the closed entries.
func NewStreamRecorder(prog *tir.Program, selected []int, cfg hydra.Config) *Recorder {
	r := NewRecorder(prog, selected)
	r.sim = newSim(cfg)
	return r
}

// Results reports the TLS simulation of every closed entry, aggregated per
// loop, for a recorder made by NewStreamRecorder; it is nil otherwise.
func (r *Recorder) Results() map[int]*Result {
	if r.sim == nil {
		return nil
	}
	return r.sim.results()
}

var (
	_ vmsim.Listener      = (*Recorder)(nil)
	_ vmsim.BatchConsumer = (*Recorder)(nil)
)

// ConsumeEvents takes a batch of VM events in execution order.
func (r *Recorder) ConsumeEvents(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			r.HeapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			r.HeapStore(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvLocalLoad:
			r.LocalLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			r.LocalStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLoopStart:
			r.LoopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			r.LoopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			r.LoopEnd(ev.Now, int(ev.Loop))
		}
	}
}

// LoopStart opens a recording when a selected loop is entered.
func (r *Recorder) LoopStart(now int64, loop, numLocals int, frame uint64) {
	if r.active {
		if loop == r.activeLoop {
			r.depth++
		}
		return
	}
	if uint(loop) >= uint(len(r.selected)) || !r.selected[loop] {
		return
	}
	r.active = true
	r.activeLoop = loop
	r.activeFrame = frame
	clear(r.allowed)
	for _, slot := range r.prog.Loops[loop].AnnLocals {
		if slot >= len(r.allowed) {
			r.allowed = append(r.allowed, make([]bool, slot+1-len(r.allowed))...)
		}
		r.allowed[slot] = true
	}
	r.entryStart = now
	r.iterStart = now
	r.depth = 0
	if r.sim != nil {
		r.sim.begin(loop)
	} else {
		r.entry = &Entry{Loop: loop}
	}
}

// LoopIter closes the current iteration of the recorded loop.
func (r *Recorder) LoopIter(now int64, loop int) {
	if !r.active || loop != r.activeLoop || r.depth > 0 {
		return
	}
	r.closeIter(now)
}

// LoopEnd closes the recording.
func (r *Recorder) LoopEnd(now int64, loop int) {
	if !r.active || loop != r.activeLoop {
		return
	}
	if r.depth > 0 {
		r.depth--
		return
	}
	r.closeIter(now)
	r.active = false
	if r.sim != nil {
		r.sim.end(now - r.entryStart)
		return
	}
	r.entry.SeqCycles = now - r.entryStart
	r.Entries = append(r.Entries, r.entry)
	r.entry = nil
}

// closeIter hands the current iteration to the sink.
func (r *Recorder) closeIter(now int64) {
	if r.sim != nil {
		r.sim.thread(now-r.iterStart, r.acc)
		r.acc = r.acc[:0]
	} else {
		r.entry.Iters = append(r.entry.Iters, Iter{Len: now - r.iterStart, Acc: r.acc})
		r.acc = nil
	}
	r.iterStart = now
}

func (r *Recorder) record(now int64, addr uint64, kind AccessKind, pc int) {
	r.acc = append(r.acc, Access{Rel: now - r.iterStart, Addr: addr, Kind: kind, PC: pc})
}

// HeapLoad records a heap read.
func (r *Recorder) HeapLoad(now int64, addr uint32, pc int) {
	if r.active {
		r.record(now, uint64(addr), Load, pc)
	}
}

// HeapStore records a heap write.
func (r *Recorder) HeapStore(now int64, addr uint32, pc int) {
	if r.active {
		r.record(now, uint64(addr), Store, pc)
	}
}

// slotAddr packs a frame/slot pair into a synthetic address disjoint from
// the 32-bit heap space.
func slotAddr(id vmsim.SlotID) uint64 {
	return 1<<40 | id.Frame<<12 | uint64(id.Slot&0xfff)
}

// ownLocal reports whether id is one of the active selected loop's
// globalized variables.
func (r *Recorder) ownLocal(id vmsim.SlotID) bool {
	return r.active && id.Frame == r.activeFrame &&
		uint(id.Slot) < uint(len(r.allowed)) && r.allowed[id.Slot]
}

// LocalLoad records a synchronized-local read (lwl annotation) of one of
// the selected loop's globalized variables.
func (r *Recorder) LocalLoad(now int64, id vmsim.SlotID, pc int) {
	if r.ownLocal(id) {
		r.record(now, slotAddr(id), LocalLoad, pc)
	}
}

// LocalStore records a synchronized-local write (swl annotation) of one of
// the selected loop's globalized variables.
func (r *Recorder) LocalStore(now int64, id vmsim.SlotID, pc int) {
	if r.ownLocal(id) {
		r.record(now, slotAddr(id), LocalStore, pc)
	}
}

// ReadStats is ignored by the recorder.
func (r *Recorder) ReadStats(now int64, loop int) {}
