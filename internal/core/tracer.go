// Package core implements TEST — the Tracer for Extracting Speculative
// Threads — the paper's primary contribution (sections 4.2 and 5).
//
// The tracer watches a sequentially executing annotated program and, for
// every active potential STL, runs two analyses in its comparator banks:
//
//   - the load dependency analysis (§4.2.1, Figure 3): every load
//     retrieves the timestamp of the last store to the same address from
//     the repurposed speculative store buffers; comparing it against the
//     bank's thread-start timestamps classifies the dependency arc into
//     the "previous thread" (t−1) or "earlier thread" (<t−1) bin, and the
//     shortest arc per thread — the critical arc — is accumulated;
//
//   - the speculative state overflow analysis (§4.2.2, Figure 4): every
//     access checks a direct-mapped cache-line timestamp buffer; lines not
//     yet touched by the current thread bump per-thread load/store line
//     counters, and exceeding the Table 1 buffer limits counts an
//     overflow.
//
// Bank allocation follows §5.2: banks are claimed stack-wise as loops are
// entered (outermost first), deeper loops go untraced when no bank or no
// local-variable timestamp space is left, persistently overflowing loops
// release their bank to deeper loops, and loops with enough collected data
// have their annotations disabled.
package core

import (
	"math"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// Bins for dependency arcs.
const (
	BinPrev    = 0 // arc to thread t-1
	BinEarlier = 1 // arc to a thread before t-1
)

// PCArcStats is the extended tracer's per-load-PC dependency bin
// (Figure 8b): critical arcs binned by the load instruction PC so a
// compiler or programmer can find the one or two loads that serialize a
// loop (§6.3).
type PCArcStats struct {
	Count  int64
	LenSum int64
	MinLen int64
}

// LoopStats is the software-visible statistics record for one static loop,
// accumulated from its comparator bank at read-statistics time. Field
// names follow the counter table of Figure 3.
type LoopStats struct {
	Loop    int
	Cycles  int64 // elapsed cycles inside the loop
	Threads int64
	Entries int64
	// ArcCount/ArcLenSum are indexed by BinPrev / BinEarlier.
	ArcCount  [2]int64
	ArcLenSum [2]int64
	Overflows int64 // threads that exceeded a speculative buffer limit
	// Capacity high-water marks (diagnostics).
	MaxLdLines int
	MaxStLines int
	// SkippedEntries counts loop entries that ran untraced because no
	// comparator bank (or local timestamp space) was available.
	SkippedEntries int64
	// PCArcs is only filled by the extended tracer.
	PCArcs map[int]*PCArcStats
}

func (s *LoopStats) add(o *LoopStats) {
	s.Cycles += o.Cycles
	s.Threads += o.Threads
	s.Entries += o.Entries
	for b := 0; b < 2; b++ {
		s.ArcCount[b] += o.ArcCount[b]
		s.ArcLenSum[b] += o.ArcLenSum[b]
	}
	s.Overflows += o.Overflows
	if o.MaxLdLines > s.MaxLdLines {
		s.MaxLdLines = o.MaxLdLines
	}
	if o.MaxStLines > s.MaxStLines {
		s.MaxStLines = o.MaxStLines
	}
}

// Options tunes runtime-system policies that the paper describes
// qualitatively.
type Options struct {
	// Extended enables per-load-PC arc binning (Figure 8b).
	Extended bool
	// ThreadQuota disables a loop's tracing after this many threads have
	// been observed ("when sufficient data has been collected ... the
	// annotations marking it can be disabled dynamically"). 0 = never.
	ThreadQuota int64
	// OverflowFree releases a bank whose loop overflows in more than this
	// fraction of threads (checked after MinThreads), freeing it for
	// deeper loops. 0 disables the policy.
	OverflowFree float64
	// MinThreads is the observation floor before OverflowFree applies.
	MinThreads int64
}

// DefaultOptions returns the runtime policies used by the experiments.
func DefaultOptions() Options {
	return Options{
		Extended:     false,
		ThreadQuota:  0,
		OverflowFree: 0.9,
		MinThreads:   64,
	}
}

// lineEntry is one direct-mapped cache-line timestamp slot (§5.3).
type lineEntry struct {
	tag   uint32
	ts    int64
	valid bool
}

// wordsPerLine is the number of per-word store timestamps in a line.
const wordsPerLine = hydra.LineSize / hydra.WordSize

// storeFIFO models the three store buffers that hold heap store
// timestamps during tracing: a FIFO of cache-line-sized entries holding
// per-word store timestamps, 192 lines deep (6 kB of write history).
// The ring keeps the lines in allocation order: a line stored to again
// keeps its entry, and a new line takes the entry of the oldest once the
// ring is full. index finds a line's entry, the associative lookup the
// hardware does with tag comparators.
type storeFIFO struct {
	ring  []fifoLine
	next  int // entry the next new line takes
	index lineIndex
}

type fifoLine struct {
	line  uint32
	used  bool
	ts    [wordsPerLine]int64
	valid [wordsPerLine]bool
}

func newStoreFIFO(capLines int) *storeFIFO {
	return &storeFIFO{ring: make([]fifoLine, capLines), index: newLineIndex(capLines)}
}

func (f *storeFIFO) record(addr uint32, ts int64) {
	line := addr / hydra.LineSize
	slot, ok := f.index.find(line)
	if !ok {
		slot = f.next
		e := &f.ring[slot]
		if e.used {
			f.index.remove(e.line)
		}
		*e = fifoLine{line: line, used: true}
		f.index.insert(line, slot)
		f.next = (f.next + 1) % len(f.ring)
	}
	e := &f.ring[slot]
	word := (addr % hydra.LineSize) / hydra.WordSize
	e.ts[word] = ts
	e.valid[word] = true
}

func (f *storeFIFO) lookup(addr uint32) (int64, bool) {
	slot, ok := f.index.find(addr / hydra.LineSize)
	if !ok {
		return 0, false
	}
	e := &f.ring[slot]
	word := (addr % hydra.LineSize) / hydra.WordSize
	return e.ts[word], e.valid[word]
}

// lineIndex maps the line numbers present in a storeFIFO to their ring
// entries: an open-addressed table with linear probing, at most half
// full, with backward-shift deletion so removals leave no tombstones.
// It allocates only when built.
type lineIndex struct {
	cells []indexCell
	shift uint32 // 32 - log2(len(cells))
}

type indexCell struct {
	key  uint32 // line + 1; 0 marks an empty cell
	slot int32
}

func newLineIndex(capLines int) lineIndex {
	n, shift := 2, uint32(31)
	for n < 2*capLines {
		n, shift = n<<1, shift-1
	}
	return lineIndex{cells: make([]indexCell, n), shift: shift}
}

// home is the key's preferred cell (Fibonacci hashing).
func (x *lineIndex) home(key uint32) int { return int((key * 0x9e3779b9) >> x.shift) }

func (x *lineIndex) find(line uint32) (int, bool) {
	key, mask := line+1, len(x.cells)-1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.cells[i].key {
		case key:
			return int(x.cells[i].slot), true
		case 0:
			return 0, false
		}
	}
}

// insert adds a line known to be absent.
func (x *lineIndex) insert(line uint32, slot int) {
	key, mask := line+1, len(x.cells)-1
	i := x.home(key)
	for x.cells[i].key != 0 {
		i = (i + 1) & mask
	}
	x.cells[i] = indexCell{key: key, slot: int32(slot)}
}

// remove deletes a line known to be present, shifting later cells of its
// probe run back so every remaining key stays reachable from its home.
func (x *lineIndex) remove(line uint32) {
	key, mask := line+1, len(x.cells)-1
	i := x.home(key)
	for x.cells[i].key != key {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.cells[j].key != 0; j = (j + 1) & mask {
		// Cell j may fill the hole at i unless its home lies cyclically
		// in (i, j].
		if h := x.home(x.cells[j].key); (j-h)&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = indexCell{}
}

// noStore marks a reserved local-variable timestamp entry not yet
// written in the current loop entry; it is older than any entry start.
const noStore = math.MinInt64

// bank is one comparator bank (Figure 7) bound to a dynamic loop entry.
// Banks are reused across loop entries; start resets one.
type bank struct {
	loopID    int
	frame     uint64
	numLocals int
	allocated bool // false: placeholder for an untraced loop entry

	entryStart int64
	tsCur      int64 // thread start timestamp (t)
	tsPrev     int64 // thread start timestamp (t-1)
	threadIdx  int64 // threads started in this entry (current = threadIdx+1)

	// Per-thread critical-arc state.
	hasArc   [2]bool
	minArc   [2]int64
	minArcPC [2]int

	// Per-thread overflow state.
	ldLines    int
	stLines    int
	overflowed bool

	// Per-entry accumulation, folded into the loop table at eloop.
	acc LoopStats

	// Each sloop reserves its own local-variable timestamp entries
	// (Table 4), one per slot in the loop's AnnLocals, so an inner loop
	// freeing its reservation never disturbs an outer bank's view of the
	// same variable. slotPos maps a frame slot to 1 + its AnnLocals
	// position (0: not reserved); localTS holds this entry's last store
	// timestamp per position.
	slotPos []int32
	localTS []int64
}

// start rebinds a reused bank to a new loop entry, clearing every trace
// of its previous entry but keeping its local timestamp storage.
func (b *bank) start(loop int, frame uint64, numLocals int) {
	*b = bank{loopID: loop, frame: frame, numLocals: numLocals, localTS: b.localTS[:0]}
}

// Tracer is the full TEST hardware model: the comparator bank array plus
// the repurposed store buffers, driven by the VM event stream. Per-loop
// state is kept in slices indexed by loop id.
type Tracer struct {
	cfg  hydra.Config
	opts Options
	prog *tir.Program

	heapTS *storeFIFO
	ldLine []lineEntry
	stLine []lineEntry

	stack      []*bank
	spare      []*bank // banks of finished entries, for reuse
	inUseBanks int
	localUsed  int

	stats    []*LoopStats // by loop id; nil until first needed
	disabled []bool       // by loop id: thread quota reached
	freed    []bool       // by loop id: bank released due to persistent overflow
	slotPos  [][]int32    // by loop id: see bank.slotPos; built on first use

	// parentEdges records observed dynamic nesting: child loop -> parent
	// loop (-1 at top level) -> entry count. The profile analyzer turns
	// this into the dynamic loop tree that Equation 2 selects over.
	parentEdges map[int]map[int]int64
}

// Compile-time check that Tracer is a VM event consumer.
var _ vmsim.Consumer = (*Tracer)(nil)

// Consume implements vmsim.Consumer: the engine hands the tracer whole
// event batches — one interface dispatch per batch instead of one per
// event — and the demultiplexing below resolves to direct calls on the
// concrete Tracer. Events are processed in execution order, so the
// comparator-bank state evolves exactly as it would one event at a time.
// Read-statistics events are timing-only (the VM charges the software
// routine's cycles); statistics are folded at eloop.
func (t *Tracer) Consume(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case vmsim.EvHeapLoad:
			t.heapLoad(ev.Now, ev.Addr, int(ev.PC))
		case vmsim.EvHeapStore:
			t.heapStore(ev.Now, ev.Addr)
		case vmsim.EvLocalLoad:
			t.localLoad(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)}, int(ev.PC))
		case vmsim.EvLocalStore:
			t.localStore(ev.Now, vmsim.SlotID{Frame: ev.Frame, Slot: int(ev.Slot)})
		case vmsim.EvLoopStart:
			t.loopStart(ev.Now, int(ev.Loop), int(ev.NumLocals), ev.Frame)
		case vmsim.EvLoopIter:
			t.loopIter(ev.Now, int(ev.Loop))
		case vmsim.EvLoopEnd:
			t.loopEnd(ev.Now, int(ev.Loop))
		}
	}
}

// NewTracer builds a tracer for prog with the given machine config.
func NewTracer(prog *tir.Program, cfg hydra.Config, opts Options) *Tracer {
	n := len(prog.Loops)
	return &Tracer{
		cfg:         cfg,
		opts:        opts,
		prog:        prog,
		heapTS:      newStoreFIFO(cfg.Tracer.HeapStoreLines),
		ldLine:      make([]lineEntry, cfg.Tracer.LoadLineTS),
		stLine:      make([]lineEntry, cfg.Tracer.StoreLineTS),
		stats:       make([]*LoopStats, n),
		disabled:    make([]bool, n),
		freed:       make([]bool, n),
		slotPos:     make([][]int32, n),
		parentEdges: map[int]map[int]int64{},
	}
}

// ParentEdges returns the observed dynamic nesting edge counts:
// child loop id -> parent loop id (-1 for top level) -> entries.
func (t *Tracer) ParentEdges() map[int]map[int]int64 { return t.parentEdges }

// Results returns the per-loop statistics table collected so far, keyed
// by loop id. The records are the tracer's own and keep accumulating.
func (t *Tracer) Results() map[int]*LoopStats {
	table := map[int]*LoopStats{}
	for loop, s := range t.stats {
		if s != nil {
			table[loop] = s
		}
	}
	return table
}

func (t *Tracer) loopStats(loop int) *LoopStats {
	s := t.stats[loop]
	if s == nil {
		s = &LoopStats{Loop: loop}
		if t.opts.Extended {
			s.PCArcs = map[int]*PCArcStats{}
		}
		t.stats[loop] = s
	}
	return s
}

// slotPositions returns the loop's slot -> 1 + AnnLocals position table.
func (t *Tracer) slotPositions(loop int) []int32 {
	if pos := t.slotPos[loop]; pos != nil {
		return pos
	}
	ann := t.prog.Loops[loop].AnnLocals
	size := 0
	for _, s := range ann {
		size = max(size, s+1)
	}
	pos := make([]int32, size)
	for i, s := range ann {
		if pos[s] == 0 {
			pos[s] = int32(i + 1)
		}
	}
	t.slotPos[loop] = pos
	return pos
}

// loopStart handles an sloop annotation: allocate a comparator bank if the
// runtime policies allow, otherwise push an inactive placeholder so the
// stack discipline stays aligned with eloop events.
func (t *Tracer) loopStart(now int64, loop, numLocals int, frame uint64) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].loopID
	}
	pe := t.parentEdges[loop]
	if pe == nil {
		pe = map[int]int64{}
		t.parentEdges[loop] = pe
	}
	pe[parent]++

	var b *bank
	if n := len(t.spare); n > 0 {
		b, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		b = new(bank)
	}
	b.start(loop, frame, numLocals)
	switch {
	case t.disabled[loop] || t.freed[loop]:
		// Annotations for this loop are logically nop'd out.
	case t.inUseBanks >= t.cfg.Tracer.Banks:
		t.loopStats(loop).SkippedEntries++
	case t.localUsed+numLocals > t.cfg.Tracer.LocalSlots:
		t.loopStats(loop).SkippedEntries++
	default:
		b.allocated = true
		b.entryStart = now
		b.tsCur = now
		b.slotPos = t.slotPositions(loop)
		for range t.prog.Loops[loop].AnnLocals {
			b.localTS = append(b.localTS, noStore)
		}
		t.inUseBanks++
		t.localUsed += numLocals
	}
	t.stack = append(t.stack, b)
}

func (b *bank) resetThread() {
	b.hasArc[0], b.hasArc[1] = false, false
	b.ldLines, b.stLines = 0, 0
	b.overflowed = false
}

// endThread folds the current thread's critical arcs and overflow flag
// into the entry accumulator, then starts the next thread at time now.
func (b *bank) endThread(now int64, t *Tracer) {
	for bin := 0; bin < 2; bin++ {
		if b.hasArc[bin] {
			b.acc.ArcCount[bin]++
			b.acc.ArcLenSum[bin] += b.minArc[bin]
			if t.opts.Extended {
				s := t.loopStats(b.loopID)
				pa := s.PCArcs[b.minArcPC[bin]]
				if pa == nil {
					pa = &PCArcStats{MinLen: b.minArc[bin]}
					s.PCArcs[b.minArcPC[bin]] = pa
				}
				pa.Count++
				pa.LenSum += b.minArc[bin]
				if b.minArc[bin] < pa.MinLen {
					pa.MinLen = b.minArc[bin]
				}
			}
		}
	}
	if b.overflowed {
		b.acc.Overflows++
	}
	if b.ldLines > b.acc.MaxLdLines {
		b.acc.MaxLdLines = b.ldLines
	}
	if b.stLines > b.acc.MaxStLines {
		b.acc.MaxStLines = b.stLines
	}
	b.threadIdx++
	b.tsPrev = b.tsCur
	b.tsCur = now
	b.resetThread()
}

// loopIter handles an eoi annotation: shift the thread start timestamps of
// the matching bank.
func (t *Tracer) loopIter(now int64, loop int) {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].loopID == loop {
			if t.stack[i].allocated {
				t.stack[i].endThread(now, t)
			}
			return
		}
	}
}

// loopEnd handles an eloop annotation: finish the final thread, fold the
// entry's counters into the loop table, free the bank, and apply the
// runtime policies (overflow release, thread quota).
func (t *Tracer) loopEnd(now int64, loop int) {
	n := len(t.stack) - 1
	if n < 0 {
		return
	}
	b := t.stack[n]
	t.stack = t.stack[:n]
	t.spare = append(t.spare, b)
	if b.loopID != loop {
		// Mismatched nesting should be impossible with well-formed
		// annotations; scan down defensively.
		for i := n - 1; i >= 0; i-- {
			if t.stack[i].loopID == loop {
				b = t.stack[i]
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				t.spare = append(t.spare, b)
				break
			}
		}
	}
	if !b.allocated {
		return
	}
	b.endThread(now, t)
	b.acc.Threads = b.threadIdx
	b.acc.Entries = 1
	b.acc.Cycles = now - b.entryStart
	s := t.loopStats(loop)
	s.add(&b.acc)
	t.inUseBanks--
	t.localUsed -= b.numLocals

	if t.opts.OverflowFree > 0 && s.Threads >= t.opts.MinThreads &&
		float64(s.Overflows) > t.opts.OverflowFree*float64(s.Threads) {
		t.freed[loop] = true
	}
	if t.opts.ThreadQuota > 0 && s.Threads >= t.opts.ThreadQuota {
		t.disabled[loop] = true
	}
}

// dependency runs the load dependency analysis (§4.2.1) for one load with
// the given last-store timestamp against every active bank.
func (t *Tracer) dependency(now int64, storeTS int64, pc int) {
	for _, b := range t.stack {
		if b.allocated {
			b.arc(now, storeTS, pc)
		}
	}
}

// arc classifies the dependency arc from a store at storeTS to a load at
// now for this bank and keeps it if it is the thread's critical arc.
func (b *bank) arc(now, storeTS int64, pc int) {
	if storeTS < b.entryStart || storeTS >= b.tsCur {
		// Stored before this STL entry, or within the current
		// thread: not an inter-thread dependency for this loop.
		return
	}
	bin := BinEarlier
	if b.threadIdx >= 1 && storeTS >= b.tsPrev {
		bin = BinPrev
	}
	arc := now - storeTS
	if !b.hasArc[bin] || arc < b.minArc[bin] {
		b.hasArc[bin] = true
		b.minArc[bin] = arc
		b.minArcPC[bin] = pc
	}
}

// heapLoad implements the automatic tracing of lw instructions: the load
// dependency analysis plus the load-line half of the overflow analysis.
func (t *Tracer) heapLoad(now int64, addr uint32, pc int) {
	if ts, ok := t.heapTS.lookup(addr); ok {
		t.dependency(now, ts, pc)
	}
	// Overflow analysis, load geometry: index bits 13:5, tag bits 31:14.
	idx := (addr / hydra.LineSize) % uint32(len(t.ldLine))
	tag := addr >> 14
	e := &t.ldLine[idx]
	for _, b := range t.stack {
		if !b.allocated {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.ldLines++
			if b.ldLines > t.cfg.Buffers.LoadLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// heapStore implements the automatic tracing of sw instructions: record
// the store timestamp for later loads plus the store-line half of the
// overflow analysis.
func (t *Tracer) heapStore(now int64, addr uint32) {
	t.heapTS.record(addr, now)
	// Overflow analysis, store geometry: index bits 10:5, tag bits 31:11.
	idx := (addr / hydra.LineSize) % uint32(len(t.stLine))
	tag := addr >> 11
	e := &t.stLine[idx]
	for _, b := range t.stack {
		if !b.allocated {
			continue
		}
		if !(e.valid && e.tag == tag && e.ts >= b.tsCur) {
			b.stLines++
			if b.stLines > t.cfg.Buffers.StoreLines {
				b.overflowed = true
			}
		}
	}
	e.valid, e.tag, e.ts = true, tag, now
}

// localLoad handles an lwl annotation: local variables take part in the
// dependency analysis (they carry loop-borne scalar dependencies) but not
// in the overflow analysis (they live in registers, not buffers). Each
// bank consults its own reserved timestamp entry for the variable.
func (t *Tracer) localLoad(now int64, id vmsim.SlotID, pc int) {
	for _, b := range t.stack {
		if p := b.reserved(id); p >= 0 {
			b.arc(now, b.localTS[p], pc)
		}
	}
}

// localStore handles an swl annotation: every active bank that reserved
// the variable records its own store timestamp.
func (t *Tracer) localStore(now int64, id vmsim.SlotID) {
	for _, b := range t.stack {
		if p := b.reserved(id); p >= 0 {
			b.localTS[p] = now
		}
	}
}

// reserved returns the bank's local timestamp entry for the variable, or
// -1 when the bank reserved none for it.
func (b *bank) reserved(id vmsim.SlotID) int {
	if !b.allocated || b.frame != id.Frame || uint(id.Slot) >= uint(len(b.slotPos)) {
		return -1
	}
	return int(b.slotPos[id.Slot]) - 1
}
