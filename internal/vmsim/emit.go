package vmsim

// Devirtualized, batched event emission.
//
// The reference interpreter hands each event to every Consumer the moment
// it happens — one interface dispatch per consumer per event, in the
// middle of the hot loop. The fast engine instead appends events to a
// small fixed-capacity batch through concrete (inlinable) *batchEmitter
// methods, and flushes the batch when it fills, before call boundaries
// are announced to CallListeners, and when the run ends. Each consumer
// receives one Consume call per batch — a single interface dispatch
// amortized over up to batchCap events, with the per-event
// demultiplexing done by concrete method calls inside the consumer's own
// package.
//
// Batching never reorders events: the buffer is drained in append order,
// which is execution order, so every consumer observes the exact sequence
// the reference interpreter would have delivered — including the relative
// order of events that share a cycle timestamp. internal/trace/FORMAT.md
// depends on this.

// EventKind discriminates the variants of Event.
type EventKind uint8

// Event kinds, one per traced instruction class (Table 4).
const (
	EvHeapLoad   EventKind = iota // lw
	EvHeapStore                   // sw
	EvLocalLoad                   // lwl
	EvLocalStore                  // swl
	EvLoopStart                   // sloop
	EvLoopIter                    // eoi
	EvLoopEnd                     // eloop
	EvReadStats                   // read-statistics
)

// Event is one trace event. Every kind sets Now, its cycle timestamp;
// the other fields are set per kind and zero otherwise: Addr and PC for
// heap events, Frame, Slot and PC for local events, Loop for loop and
// read-statistics events, plus NumLocals and Frame for loop starts.
type Event struct {
	Now       int64
	Frame     uint64
	Addr      uint32
	PC        int32
	Slot      int32
	Loop      int32
	NumLocals int32
	Kind      EventKind
}

// batchCap is the event batch capacity. Large enough to amortize the
// per-batch interface dispatch, small enough to stay in L1.
const batchCap = 256

// batchEmitter buffers events for the fast engine. All methods are on
// the concrete type, so calls from the interpreter loop are direct (and
// the append paths inline); no interface dispatch happens until flush.
type batchEmitter struct {
	n         int
	consumers []Consumer
	buf       [batchCap]Event
}

// newBatchEmitter returns nil when there are no consumers, which is the
// emitter's "statically off" state: the interpreter guards every
// emission site with a nil check, so untraced runs pay one predictable
// branch and nothing else.
func newBatchEmitter(consumers []Consumer) *batchEmitter {
	if len(consumers) == 0 {
		return nil
	}
	return &batchEmitter{consumers: consumers}
}

// flush drains the batch to every consumer in order. Each consumer sees
// the events in append (= execution) order.
func (em *batchEmitter) flush() {
	if em.n == 0 {
		return
	}
	evs := em.buf[:em.n]
	for _, c := range em.consumers {
		c.Consume(evs)
	}
	em.n = 0
}

func (em *batchEmitter) slot() *Event {
	if em.n == batchCap {
		em.flush()
	}
	ev := &em.buf[em.n]
	em.n++
	return ev
}

func (em *batchEmitter) heapLoad(now int64, addr uint32, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvHeapLoad, Now: now, Addr: addr, PC: pc}
}

func (em *batchEmitter) heapStore(now int64, addr uint32, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvHeapStore, Now: now, Addr: addr, PC: pc}
}

func (em *batchEmitter) localLoad(now int64, frame uint64, slot, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLocalLoad, Now: now, Frame: frame, Slot: slot, PC: pc}
}

func (em *batchEmitter) localStore(now int64, frame uint64, slot, pc int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLocalStore, Now: now, Frame: frame, Slot: slot, PC: pc}
}

func (em *batchEmitter) loopStart(now int64, loop, numLocals int32, frame uint64) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopStart, Now: now, Loop: loop, NumLocals: numLocals, Frame: frame}
}

func (em *batchEmitter) loopIter(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopIter, Now: now, Loop: loop}
}

func (em *batchEmitter) loopEnd(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvLoopEnd, Now: now, Loop: loop}
}

func (em *batchEmitter) readStats(now int64, loop int32) {
	ev := em.slot()
	*ev = Event{Kind: EvReadStats, Now: now, Loop: loop}
}
