package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"jrpm/internal/vmsim"
)

// Decode errors. Any malformed input yields one of these (or an I/O
// error) — never a panic: every field is bounds-checked against the
// format caps before use, and a stream that ends before its summary
// trailer reports io.ErrUnexpectedEOF.
var (
	ErrBadMagic     = errors.New("trace: bad magic (not a jrpm trace)")
	ErrBadVersion   = errors.New("trace: unsupported format version")
	ErrCorrupt      = errors.New("trace: corrupt record")
	ErrHashMismatch = errors.New("trace: program hash mismatch (trace was recorded from a different program)")
)

const (
	// headerLen is the fixed header size: magic, version, program hash.
	headerLen = len(Magic) + 1 + 32
	// maxRecordLen bounds one encoded record: a kind byte plus at most
	// nine uvarints (the summary trailer's count and counters).
	maxRecordLen = 1 + 9*binary.MaxVarintLen64
	// blockSize is how many events one decode step produces. Replay and
	// every sweep worker decode a block, then hand the same block to each
	// consumer in turn: large enough that the per-block dispatch and
	// cancellation check vanish against the work, small enough (160 kB)
	// that the block stays cache-resident while its consumers run.
	blockSize = 4096
)

// parseHeader checks the magic and version at the front of b and returns
// the header.
func parseHeader(b []byte) (Header, error) {
	var hdr Header
	if len(b) < len(Magic) {
		return hdr, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(b) != Magic {
		return hdr, ErrBadMagic
	}
	if len(b) < len(Magic)+1 {
		return hdr, fmt.Errorf("trace: reading version: %w", io.ErrUnexpectedEOF)
	}
	if ver := b[len(Magic)]; ver != Version {
		return hdr, fmt.Errorf("%w: %d (reader supports %d)", ErrBadVersion, ver, Version)
	}
	if len(b) < headerLen {
		return hdr, fmt.Errorf("trace: reading program hash: %w", io.ErrUnexpectedEOF)
	}
	hdr.Version = Version
	copy(hdr.ProgramHash[:], b[len(Magic)+1:headerLen])
	return hdr, nil
}

// decoder is the one decoding core behind Reader and Sweep: it turns the
// record bytes in buf[pos:] into vmsim.Events, carrying the delta state
// across calls, and checks the trailer once it reaches it.
type decoder struct {
	buf []byte
	pos int

	// maxLoop is the largest loop id accepted.
	maxLoop uint64

	prevTime  int64
	prevAddr  uint32
	prevPC    int32
	prevFrame uint64

	records uint64
	sum     Summary
	done    bool // the trailer has been decoded and checked
}

// bindLoops bounds loop ids to a loop table of numLoops entries; 0 leaves
// only the format cap.
func (d *decoder) bindLoops(numLoops int) {
	d.maxLoop = maxLoopID
	if numLoops > 0 {
		d.maxLoop = uint64(numLoops) - 1
	}
}

// decode fills evs with the next records and returns how many it filled.
// It stops early once the trailer is decoded (d.done) and, when more
// input may still be appended to buf, before any record that might not
// be wholly buffered yet. On error, evs[:n] hold the records decoded
// before the bad one.
func (d *decoder) decode(evs []vmsim.Event, more bool) (int, error) {
	for n := range evs {
		if d.done || more && len(d.buf)-d.pos <= maxRecordLen {
			return n, nil
		}
		if d.pos == len(d.buf) {
			// No trailer: the recording was cut off.
			return n, io.ErrUnexpectedEOF
		}
		kind := Kind(d.buf[d.pos])
		d.pos++
		if kind == KindSummary {
			return n, d.summary()
		}
		if err := d.record(kind, &evs[n]); err != nil {
			return n, err
		}
		d.records++
	}
	return len(evs), nil
}

// uvarint decodes the uvarint at b[p:] and returns it with the position
// after it, or with a negative position (see varintErr) when the varint
// is cut off or overflows. Most fields of a real trace are deltas that
// fit one byte; that case inlines.
func uvarint(b []byte, p int) (uint64, int) {
	if uint(p) < uint(len(b)) && b[p] < 0x80 {
		return uint64(b[p]), p + 1
	}
	return uvarintLong(b, p)
}

func uvarintLong(b []byte, p int) (uint64, int) {
	u, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, n - 1
	}
	return u, p + n
}

// varintErr is the error for a negative position from uvarint.
func varintErr(p int) error {
	if p == -1 {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: varint overflows a 64-bit integer", ErrCorrupt)
}

// record decodes the fields of one event record of the given kind,
// checking each against its cap as soon as it is read.
func (d *decoder) record(kind Kind, ev *vmsim.Event) error {
	b := d.buf
	dt, p := uvarint(b, d.pos)
	if p < 0 {
		return varintErr(p)
	}
	if dt > maxTime || d.prevTime > maxTime-int64(dt) {
		return fmt.Errorf("%w: time delta out of range", ErrCorrupt)
	}
	d.prevTime += int64(dt)
	// Record kinds 1-8 are the vmsim event kinds, in the same order.
	*ev = vmsim.Event{Kind: vmsim.EventKind(kind - KindHeapLoad), Now: d.prevTime}

	var u uint64
	switch kind {
	case KindHeapLoad, KindHeapStore:
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		addr := int64(d.prevAddr) + unzigzag(u)
		if addr < 0 || addr > 0xffffffff {
			return fmt.Errorf("%w: address out of range", ErrCorrupt)
		}
		d.prevAddr = uint32(addr)
		ev.Addr = d.prevAddr
	case KindLocalLoad, KindLocalStore:
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		d.prevFrame += uint64(unzigzag(u))
		ev.Frame = d.prevFrame
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		if u > maxSlot {
			return fmt.Errorf("%w: slot out of range", ErrCorrupt)
		}
		ev.Slot = int32(u)
	case KindLoopStart, KindLoopIter, KindLoopEnd, KindReadStats:
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		if u > d.maxLoop {
			return fmt.Errorf("%w: loop id %d out of range", ErrCorrupt, u)
		}
		ev.Loop = int32(u)
		if kind != KindLoopStart {
			break
		}
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		if u > maxNumLocals {
			return fmt.Errorf("%w: numLocals out of range", ErrCorrupt)
		}
		ev.NumLocals = int32(u)
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		d.prevFrame += uint64(unzigzag(u))
		ev.Frame = d.prevFrame
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, byte(kind))
	}
	if kind <= KindLocalStore {
		// Heap and local records end with a pc delta.
		if u, p = uvarint(b, p); p < 0 {
			return varintErr(p)
		}
		pc := int64(d.prevPC) + unzigzag(u)
		if pc < 0 || pc >= maxPC {
			return fmt.Errorf("%w: pc out of range", ErrCorrupt)
		}
		d.prevPC = int32(pc)
		ev.PC = d.prevPC
	}
	d.pos = p
	return nil
}

// summary decodes the trailer after its kind byte and checks that it
// ends the stream.
func (d *decoder) summary() error {
	fields := []*int64{
		&d.sum.CleanCycles, &d.sum.TracedCycles,
		&d.sum.HeapLoads, &d.sum.HeapStores,
		&d.sum.LocalAnnots, &d.sum.LoopAnnots,
		&d.sum.ReadStats, &d.sum.Annotations,
	}
	n, p := uvarint(d.buf, d.pos)
	if p < 0 {
		return varintErr(p)
	}
	if n != d.records {
		return fmt.Errorf("%w: trailer records %d, decoded %d", ErrCorrupt, n, d.records)
	}
	d.sum.Records = n
	for _, f := range fields {
		var u uint64
		if u, p = uvarint(d.buf, p); p < 0 {
			return varintErr(p)
		}
		if u > maxTime {
			return fmt.Errorf("%w: summary counter out of range", ErrCorrupt)
		}
		*f = int64(u)
	}
	// Nothing may follow the trailer.
	if d.pos = p; d.pos != len(d.buf) {
		return fmt.Errorf("%w: trailing data after summary", ErrCorrupt)
	}
	d.done = true
	return nil
}

// Reader streams events back out of a recorded trace from an io.Reader.
// It is a thin wrapper over the decoding core that Sweep runs on a
// recording in memory: it keeps a 64 kB window of the stream, topped up
// before it runs low, decodes a block of events at a time from it, and
// hands them out one by one (Next) or a block at a time (Replay).
// Decoding is strict: record fields are validated against the format
// caps (and, when NumLoops is set, against the program's loop table) so
// a corrupt or adversarial byte stream errors out instead of panicking
// or allocating unboundedly — the Reader performs no per-record
// allocation at all.
type Reader struct {
	src io.Reader
	eof bool   // src is exhausted: dec.buf holds the rest of the stream
	win []byte // backing store of dec.buf
	hdr Header
	dec decoder

	// NumLoops, when > 0, bounds loop ids to the replay target's loop
	// table; out-of-range ids fail decoding instead of indexing panics
	// inside a listener.
	NumLoops int

	// Decoded events: blk[next:] are not yet handed out, and err is the
	// decode error that follows them. blk slices store.
	blk   []vmsim.Event
	next  int
	err   error
	store []vmsim.Event
}

// NewReader parses the header from r.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, win: make([]byte, 1<<16)}
	if err := tr.fill(); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	hdr, err := parseHeader(tr.dec.buf)
	if err != nil {
		return nil, err
	}
	tr.hdr = hdr
	tr.dec.pos = headerLen
	return tr, nil
}

// fill tops the window up until it holds more than one maximal record or
// the rest of the stream, so the decoder never stops inside a record
// that is only partly buffered.
func (r *Reader) fill() error {
	d := &r.dec
	if r.eof || len(d.buf)-d.pos > maxRecordLen {
		return nil
	}
	n := copy(r.win, d.buf[d.pos:])
	m, err := io.ReadAtLeast(r.src, r.win[n:], maxRecordLen+1-n)
	d.buf, d.pos = r.win[:n+m], 0
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		r.eof = true
		return nil
	}
	return err
}

// pending returns the decoded events not yet handed out, first decoding
// the next block, topping the window up as needed, if none are left and
// the stream goes on.
func (r *Reader) pending() []vmsim.Event {
	if r.next < len(r.blk) || r.err != nil || r.dec.done {
		return r.blk[r.next:]
	}
	if r.store == nil {
		r.store = make([]vmsim.Event, blockSize)
	}
	r.dec.bindLoops(r.NumLoops)
	n := 0
	for n < len(r.store) && !r.dec.done && r.err == nil {
		if r.err = r.fill(); r.err == nil {
			var m int
			m, r.err = r.dec.decode(r.store[n:], !r.eof)
			n += m
		}
	}
	r.blk, r.next = r.store[:n], 0
	return r.blk
}

// Header returns the parsed trace header.
func (r *Reader) Header() Header { return r.hdr }

// Summary returns the trailer totals; ok is false until the summary
// record has been reached (Next returned io.EOF or Replay succeeded).
func (r *Reader) Summary() (Summary, bool) {
	return r.dec.sum, r.dec.done && r.next == len(r.blk)
}

// Next returns the next event record. It returns io.EOF after the
// summary trailer has been consumed (Summary then reports the totals);
// a stream that ends anywhere else is reported as corrupt or truncated,
// after every event before the bad record.
func (r *Reader) Next() (Event, error) {
	evs := r.pending()
	if len(evs) == 0 {
		if r.err != nil {
			return Event{}, r.err
		}
		return Event{}, io.EOF
	}
	r.next++
	ev := &evs[0]
	return Event{
		Kind:      Kind(ev.Kind) + KindHeapLoad,
		Time:      ev.Now,
		Addr:      ev.Addr,
		PC:        int(ev.PC),
		Frame:     ev.Frame,
		Slot:      int(ev.Slot),
		Loop:      int(ev.Loop),
		NumLocals: int(ev.NumLocals),
	}, nil
}

// Replay streams every remaining event into the listeners and returns
// the trace summary. Each decoded block goes to every listener in turn:
// in one ConsumeEvents call to a vmsim.BatchConsumer, one vmsim.Deliver
// per event to any other. Each listener sees exactly the sequence the
// recorded run produced; on a decode error it has seen every event
// before the bad record.
func (r *Reader) Replay(listeners ...vmsim.Listener) (Summary, error) {
	for {
		evs := r.pending()
		r.next = len(r.blk)
		for _, l := range listeners {
			if bc, ok := l.(vmsim.BatchConsumer); ok {
				bc.ConsumeEvents(evs)
				continue
			}
			for i := range evs {
				vmsim.Deliver(l, &evs[i])
			}
		}
		if r.err != nil {
			return Summary{}, r.err
		}
		if r.dec.done {
			return r.dec.sum, nil
		}
	}
}
