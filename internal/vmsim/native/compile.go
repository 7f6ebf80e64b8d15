package native

import (
	"fmt"
	"sort"

	"jrpm/internal/tir"
)

// CompilePlan compiles the requested loops of prog against one hydra
// configuration. Loops that cannot be compiled (unsupported header,
// oversized blocks) are reported in Plan.Rejected rather than failing the
// plan: native is an opportunistic tier, and an uncompiled loop simply
// keeps running on the predecoded interpreter.
func CompilePlan(prog *tir.Program, loopIDs []int, cfg Config) *Plan {
	plan := &Plan{Rejected: map[int]string{}, Cfg: cfg}
	want := make(map[int]bool, len(loopIDs))
	for _, id := range loopIDs {
		want[id] = true
	}
	readsByFunc := map[int][]int32{}
	for i := range prog.Loops {
		info := &prog.Loops[i]
		if !want[info.ID] {
			continue
		}
		reads := readsByFunc[info.Func]
		if reads == nil {
			reads = prog.Funcs[info.Func].ReadCounts()
			readsByFunc[info.Func] = reads
		}
		l, err := compileLoop(prog, info, cfg, reads)
		if err != nil {
			plan.Rejected[info.ID] = err.Error()
			continue
		}
		plan.Loops = append(plan.Loops, l)
	}
	markYields(plan)
	return plan
}

// markYields makes nesting cooperative: when an outer loop's region
// contains the header block of another compiled loop, the outer loop
// must not interpret that inner loop block-at-a-time — the inner loop's
// fused iteration path is strictly better. Marking the inner header as a
// yield block turns it into an ordinary edge exit, which lands the
// interpreter exactly on that header's dNativeEnter patch.
func markYields(plan *Plan) {
	type key struct{ fn, block int }
	headers := make(map[key]bool, len(plan.Loops))
	for _, l := range plan.Loops {
		headers[key{l.Func, l.Header}] = true
	}
	for _, l := range plan.Loops {
		for i := range l.blocks {
			cb := &l.blocks[i]
			if int(cb.block) != l.Header && headers[key{l.Func, int(cb.block)}] {
				cb.yield = true
			}
		}
	}
}

// annotOnly reports whether a block consists solely of loop/local
// annotations ending in an unconditional branch — the shape of the
// trampoline blocks the annotation pass splices between loop members.
func annotOnly(b *tir.Block) bool {
	n := len(b.Instrs)
	if n == 0 || b.Instrs[n-1].Op != tir.OpBr {
		return false
	}
	for i := 0; i < n-1; i++ {
		switch b.Instrs[i].Op {
		case tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpLWL, tir.OpSWL, tir.OpReadStats:
		default:
			return false
		}
	}
	return true
}

// compileLoop compiles one loop region: the loop's member blocks plus any
// annotation-only trampoline chains that leave a member and re-enter the
// region (EOI latch shims, inner-loop SLoop/ELoop shims). Chains that
// escape the region stay outside it and become normal exit edges.
func compileLoop(prog *tir.Program, info *tir.LoopInfo, cfg Config, reads []int32) (*Loop, error) {
	f := prog.Funcs[info.Func]
	member := make(map[int]bool, len(info.Blocks))
	for _, b := range info.Blocks {
		if b < 0 || b >= len(f.Blocks) {
			return nil, fmt.Errorf("loop L%d: member block %d out of range", info.ID, b)
		}
		member[b] = true
	}
	if !member[info.Header] {
		return nil, fmt.Errorf("loop L%d: header %d not a member block", info.ID, info.Header)
	}
	region := make(map[int]bool, len(member)+4)
	for b := range member {
		region[b] = true
	}
	for _, bi := range info.Blocks {
		for _, t := range f.Blocks[bi].Targets {
			absorbChain(f, t, region)
		}
	}

	blocks := make([]int, 0, len(region))
	for b := range region {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	idx := make(map[int]int32, len(blocks))
	for i, b := range blocks {
		idx[b] = int32(i)
	}

	l := &Loop{
		ID:     int32(info.ID),
		Func:   info.Func,
		Header: info.Header,
		Name:   info.Name,
		blocks: make([]cblock, len(blocks)),
		entry:  idx[info.Header],
	}
	for i, bi := range blocks {
		cb, err := compileBlock(f, bi, reads, idx, cfg)
		if err != nil {
			if bi == info.Header {
				return nil, fmt.Errorf("loop L%d: header block %d: %v", info.ID, bi, err)
			}
			cb = cblock{stub: true, block: int32(bi)}
		}
		l.blocks[i] = cb
	}
	detectFusedCycle(l)
	return l, nil
}

// absorbChain walks an annotation-only trampoline chain starting at
// block `start`; if the chain re-enters the region it is absorbed into it.
func absorbChain(f *tir.Function, start int, region map[int]bool) {
	var chain []int
	seen := map[int]bool{}
	cur := start
	for {
		if region[cur] {
			for _, c := range chain {
				region[c] = true
			}
			return
		}
		if seen[cur] || cur < 0 || cur >= len(f.Blocks) {
			return
		}
		b := &f.Blocks[cur]
		if !annotOnly(b) {
			return
		}
		seen[cur] = true
		chain = append(chain, cur)
		cur = b.Targets[0]
	}
}

// detectFusedCycle finds the single straight-line cycle through the
// header, if there is one: header branches to exactly one in-region
// successor, and from there every block has a single in-region successor
// until control returns to the header. Such loops run on the fused path:
// one window precheck and one accounting commit per iteration.
func detectFusedCycle(l *Loop) {
	hdr := &l.blocks[l.entry]
	var body int32 = -1
	switch hdr.nsucc {
	case 1:
		if hdr.succs[0] >= 0 {
			body = hdr.succs[0]
		}
	case 2:
		in0, in1 := hdr.succs[0] >= 0, hdr.succs[1] >= 0
		if in0 && !in1 {
			body = hdr.succs[0]
		} else if in1 && !in0 {
			body = hdr.succs[1]
		}
	}
	if body < 0 {
		return
	}
	cycle := []*cblock{hdr}
	steps, cyc := hdr.steps, hdr.cycles
	ctrs := [][]ctrDelta{hdr.ctrs}
	seen := map[int32]bool{l.entry: true}
	cur := body
	for cur != l.entry {
		if seen[cur] {
			return
		}
		seen[cur] = true
		cb := &l.blocks[cur]
		if cb.stub || cb.nsucc != 1 || cb.succs[0] < 0 {
			return
		}
		cycle = append(cycle, cb)
		steps += cb.steps
		cyc += cb.cycles
		ctrs = append(ctrs, cb.ctrs)
		cur = cb.succs[0]
	}
	if steps >= maxBlockSteps {
		return
	}
	l.cycle = cycle
	l.bodyNext = body
	l.iterBatch = makeIterBatch(cycle, body)
	l.iterSteps = steps
	l.iterCyc = cyc
	l.iterCtrs = mergeCtrs(ctrs)
}

// makeIterBatch pre-fuses everything k fused iterations do — the
// header's branch decision, the body blocks' statements, and the
// per-block stepBase/cycleBase advances (which event timestamps and
// fault replay depend on) — into a single closure with an internal
// iteration loop, so the fast path pays one closure call per batch
// instead of two per iteration. Body blocks end in unconditional
// branches (detectFusedCycle admits only single-target blocks), so
// their terminator closures are side-effect-free and can be skipped.
// Returns how many iterations completed and the off-cycle target that
// ended the batch early (meaningless when all k ran).
func makeIterBatch(cycle []*cblock, bodyNext int32) func(st *State, k int64) (int64, int32) {
	hrun := cycle[0].run
	hs, hc := cycle[0].steps, cycle[0].cycles
	if len(cycle) == 2 {
		b := cycle[1]
		bs, bcy := b.steps, b.cycles
		switch len(b.stmts) {
		case 1:
			s0 := b.stmts[0]
			return func(st *State, k int64) (int64, int32) {
				for n := int64(0); n < k; n++ {
					if nx := hrun(st); nx != bodyNext {
						return n, nx
					}
					st.stepBase += hs
					st.cycleBase += hc
					s0(st)
					st.stepBase += bs
					st.cycleBase += bcy
				}
				return k, 0
			}
		case 2:
			s0, s1 := b.stmts[0], b.stmts[1]
			return func(st *State, k int64) (int64, int32) {
				for n := int64(0); n < k; n++ {
					if nx := hrun(st); nx != bodyNext {
						return n, nx
					}
					st.stepBase += hs
					st.cycleBase += hc
					s0(st)
					s1(st)
					st.stepBase += bs
					st.cycleBase += bcy
				}
				return k, 0
			}
		case 3:
			s0, s1, s2 := b.stmts[0], b.stmts[1], b.stmts[2]
			return func(st *State, k int64) (int64, int32) {
				for n := int64(0); n < k; n++ {
					if nx := hrun(st); nx != bodyNext {
						return n, nx
					}
					st.stepBase += hs
					st.cycleBase += hc
					s0(st)
					s1(st)
					s2(st)
					st.stepBase += bs
					st.cycleBase += bcy
				}
				return k, 0
			}
		case 4:
			s0, s1, s2, s3 := b.stmts[0], b.stmts[1], b.stmts[2], b.stmts[3]
			return func(st *State, k int64) (int64, int32) {
				for n := int64(0); n < k; n++ {
					if nx := hrun(st); nx != bodyNext {
						return n, nx
					}
					st.stepBase += hs
					st.cycleBase += hc
					s0(st)
					s1(st)
					s2(st)
					s3(st)
					st.stepBase += bs
					st.cycleBase += bcy
				}
				return k, 0
			}
		}
	}
	body := cycle[1:]
	return func(st *State, k int64) (int64, int32) {
		for n := int64(0); n < k; n++ {
			if nx := hrun(st); nx != bodyNext {
				return n, nx
			}
			st.stepBase += hs
			st.cycleBase += hc
			for _, cb := range body {
				cb.run(st)
				st.stepBase += cb.steps
				st.cycleBase += cb.cycles
			}
		}
		return k, 0
	}
}

func mergeCtrs(lists [][]ctrDelta) []ctrDelta {
	var sum [NumCounters]int64
	for _, l := range lists {
		for _, cd := range l {
			sum[cd.idx] += cd.d
		}
	}
	var out []ctrDelta
	for i, d := range sum {
		if d != 0 {
			out = append(out, ctrDelta{idx: int32(i), d: d})
		}
	}
	return out
}

// operand is one register operand of a val: either an in-block producer
// (v != nil) or an external register read.
type operand struct {
	v   *val
	reg int32
}

// val is the compile-time record of one instruction in a block.
type val struct {
	idx        int
	in         *tir.Instr
	a, b       operand
	hasA, hasB bool
	valued     bool
	obs        bool // emits an event and/or can fault: fixed execution order
	uses       int
	mat        bool // execute at def position (result via st.Regs[dst])
	wb         bool // inline at consumer but write st.Regs[dst] too
	extLive    bool
	dead       bool
	stepIdx    int64
	cycOff     int64
	site       *faultSite
}

// blockCtx carries one block's scheduling state across planning rounds.
type blockCtx struct {
	f        *tir.Function
	bi       int
	ins      []tir.Instr
	vals     []*val
	cfg      Config
	idxMap   map[int]int32        // function block index -> region index
	cumCtr   [][NumCounters]int64 // counter prefix before instr i
	curPos   int
	obsLast  int64
	requests map[*val]bool
	err      error
}

func (bc *blockCtx) fail(format string, args ...any) {
	if bc.err == nil {
		bc.err = fmt.Errorf(format, args...)
	}
}

func opValued(op tir.Op) bool {
	switch op {
	case tir.OpConstI, tir.OpConstF, tir.OpMov,
		tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpDiv, tir.OpMod,
		tir.OpAnd, tir.OpOr, tir.OpXor, tir.OpShl, tir.OpShr,
		tir.OpNeg, tir.OpNot,
		tir.OpFAdd, tir.OpFSub, tir.OpFMul, tir.OpFDiv, tir.OpFNeg,
		tir.OpEq, tir.OpNe, tir.OpLt, tir.OpLe, tir.OpGt, tir.OpGe,
		tir.OpFEq, tir.OpFNe, tir.OpFLt, tir.OpFLe, tir.OpFGt, tir.OpFGe,
		tir.OpI2F, tir.OpF2I,
		tir.OpLdLoc, tir.OpLdGlob, tir.OpLoad, tir.OpArrLen:
		return true
	}
	return false
}

func opReadsA(op tir.Op) bool {
	switch op {
	case tir.OpMov, tir.OpNeg, tir.OpNot, tir.OpFNeg, tir.OpI2F, tir.OpF2I,
		tir.OpLoad, tir.OpArrLen, tir.OpStLoc, tir.OpStore,
		tir.OpBrIf, tir.OpPrint:
		return true
	}
	return opReadsB(op)
}

func opReadsB(op tir.Op) bool {
	switch op {
	case tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpDiv, tir.OpMod,
		tir.OpAnd, tir.OpOr, tir.OpXor, tir.OpShl, tir.OpShr,
		tir.OpFAdd, tir.OpFSub, tir.OpFMul, tir.OpFDiv,
		tir.OpEq, tir.OpNe, tir.OpLt, tir.OpLe, tir.OpGt, tir.OpGe,
		tir.OpFEq, tir.OpFNe, tir.OpFLt, tir.OpFLe, tir.OpFGt, tir.OpFGe,
		tir.OpStore:
		return true
	}
	return false
}

// opObs: observable mid-block — emits an event or can fault. These must
// execute in static instruction order so the event stream and fault
// points stay bit-identical to the reference interpreter.
func opObs(op tir.Op) bool {
	switch op {
	case tir.OpLoad, tir.OpDiv, tir.OpMod, tir.OpArrLen:
		return true
	}
	return false
}

func opCost(op tir.Op, cfg Config) int64 {
	switch op {
	case tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpLWL, tir.OpSWL:
		return cfg.AnnotCost
	case tir.OpReadStats:
		return cfg.ReadStatsCost
	}
	return 1
}

// extLiveOf reports whether a value's register is read beyond its
// in-block consumers — by later blocks, or by the interpreter after a
// deopt — in which case the register write must materialize.
func extLiveOf(v *val, reads []int32) bool {
	d := int32(v.in.Dst)
	if d < 0 || int(d) >= len(reads) {
		return false
	}
	return reads[d] > int32(v.uses)
}

func writesReg(in *tir.Instr) (int32, bool) {
	if opValued(in.Op) && in.Dst >= 0 {
		return int32(in.Dst), true
	}
	return -1, false
}

// compileBlock compiles one basic block into a cblock, or returns an
// error when the block contains unsupported operations (calls,
// allocation, returns) or is too large for a poll window — the caller
// turns such blocks into deopt stubs.
func compileBlock(f *tir.Function, bi int, reads []int32, idx map[int]int32, cfg Config) (cblock, error) {
	blk := &f.Blocks[bi]
	ins := blk.Instrs
	n := len(ins)
	if n == 0 {
		return cblock{}, fmt.Errorf("empty block")
	}
	if int64(n) >= maxBlockSteps {
		return cblock{}, fmt.Errorf("block has %d micro-ops (window limit %d)", n, maxBlockSteps)
	}
	for i := range ins {
		switch ins[i].Op {
		case tir.OpCall:
			return cblock{}, fmt.Errorf("contains call")
		case tir.OpNewArr:
			return cblock{}, fmt.Errorf("contains allocation")
		case tir.OpRet:
			return cblock{}, fmt.Errorf("contains return")
		case tir.OpNop, tir.OpConstI, tir.OpConstF, tir.OpMov,
			tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpDiv, tir.OpMod,
			tir.OpAnd, tir.OpOr, tir.OpXor, tir.OpShl, tir.OpShr,
			tir.OpNeg, tir.OpNot,
			tir.OpFAdd, tir.OpFSub, tir.OpFMul, tir.OpFDiv, tir.OpFNeg,
			tir.OpEq, tir.OpNe, tir.OpLt, tir.OpLe, tir.OpGt, tir.OpGe,
			tir.OpFEq, tir.OpFNe, tir.OpFLt, tir.OpFLe, tir.OpFGt, tir.OpFGe,
			tir.OpI2F, tir.OpF2I,
			tir.OpLdLoc, tir.OpStLoc, tir.OpLdGlob, tir.OpLoad, tir.OpStore,
			tir.OpArrLen, tir.OpBr, tir.OpBrIf, tir.OpPrint,
			tir.OpSLoop, tir.OpELoop, tir.OpEOI, tir.OpLWL, tir.OpSWL, tir.OpReadStats:
		default:
			return cblock{}, fmt.Errorf("unsupported opcode %d", ins[i].Op)
		}
	}

	bc := &blockCtx{f: f, bi: bi, ins: ins, cfg: cfg, idxMap: idx}

	// Build the value graph: resolve each operand to its in-block
	// producer (the latest def before the consumer) or an external
	// register read.
	defs := map[int32]*val{}
	bc.vals = make([]*val, n)
	var cycOff int64
	bc.cumCtr = make([][NumCounters]int64, n)
	var cum [NumCounters]int64
	for i := range ins {
		in := &ins[i]
		v := &val{idx: i, in: in, valued: opValued(in.Op), obs: opObs(in.Op), stepIdx: int64(i + 1), cycOff: cycOff}
		bc.cumCtr[i] = cum
		if c := counterOf(in.Op); c >= 0 {
			cum[c]++
		}
		cycOff += opCost(in.Op, cfg)
		resolve := func(r tir.Reg) (operand, error) {
			if r < 0 || int(r) >= f.NumRegs {
				return operand{}, fmt.Errorf("instr %d reads invalid register %d", i, r)
			}
			o := operand{reg: int32(r)}
			if d := defs[int32(r)]; d != nil {
				o.v = d
				d.uses++
			}
			return o, nil
		}
		var err error
		if opReadsA(in.Op) {
			if v.a, err = resolve(in.A); err != nil {
				return cblock{}, err
			}
			v.hasA = true
		}
		if opReadsB(in.Op) {
			if v.b, err = resolve(in.B); err != nil {
				return cblock{}, err
			}
			v.hasB = true
		}
		v.site = bc.siteFor(v)
		if d, ok := writesReg(in); ok {
			defs[d] = v
		}
		bc.vals[i] = v
	}

	// Dead-value elimination (reverse cascade): a value with no
	// consumers, no observable effect, and no reads after the block can
	// be skipped entirely — its step/cycle/counter contribution is
	// already in the block's static accounting.
	for i := n - 1; i >= 0; i-- {
		v := bc.vals[i]
		if !v.valued {
			continue
		}
		v.extLive = extLiveOf(v, reads)
		if v.uses == 0 && !v.obs && !v.extLive {
			v.dead = true
			if v.hasA && v.a.v != nil {
				v.a.v.uses--
			}
			if v.hasB && v.b.v != nil {
				v.b.v.uses--
			}
		}
	}
	// Scheduling roles: multi-use and consumerless values execute at
	// their def position; single-use values inline at their consumer,
	// writing the register back when later code reads it.
	for _, v := range bc.vals {
		if !v.valued || v.dead {
			continue
		}
		v.extLive = extLiveOf(v, reads)
		if v.uses != 1 {
			v.mat = true
		} else if v.extLive {
			v.wb = true
		}
	}

	// Plan/emit rounds: emission detects observable-order and data-hazard
	// violations caused by inlining a value past an intervening effect,
	// and repairs them by materializing the value at its def position
	// (which restores reference order). Repeats until a clean round.
	var stmts []stmt
	var term func(*State) int32
	for round := 0; ; round++ {
		if round > n+1 {
			return cblock{}, fmt.Errorf("block scheduler did not converge")
		}
		bc.requests = map[*val]bool{}
		bc.obsLast = 0
		bc.err = nil
		stmts, term = bc.emitAll()
		if bc.err != nil {
			return cblock{}, bc.err
		}
		if len(bc.requests) == 0 {
			break
		}
		for v := range bc.requests {
			v.mat, v.wb = true, false
		}
	}

	cb := cblock{
		run:    makeRun(stmts, term),
		stmts:  stmts,
		steps:  int64(n),
		cycles: cycOff,
		block:  int32(bi),
	}
	var total [NumCounters]int64 = cum
	for i, d := range total {
		if d != 0 {
			cb.ctrs = append(cb.ctrs, ctrDelta{idx: int32(i), d: d})
		}
	}
	mapSucc := func(t int) int32 {
		if r, ok := idx[t]; ok {
			return r
		}
		return ^int32(t)
	}
	for i, t := range blk.Targets {
		if i < 2 {
			cb.succs[i] = mapSucc(t)
			cb.nsucc++
		}
	}
	return cb, nil
}

// siteFor precomputes the static half of a fault for faultable opcodes:
// the reference engine's message and the step/cycle/counter state at the
// fault point, as offsets from the block's entry bases.
func (bc *blockCtx) siteFor(v *val) *faultSite {
	var format string
	var hasAddr bool
	switch v.in.Op {
	case tir.OpDiv:
		format = "integer division by zero"
	case tir.OpMod:
		format = "integer modulo by zero"
	case tir.OpLoad:
		format, hasAddr = "bad load address 0x%x", true
	case tir.OpStore:
		format, hasAddr = "bad store address 0x%x", true
	case tir.OpArrLen:
		format, hasAddr = "len of non-array address 0x%x", true
	default:
		return nil
	}
	s := &faultSite{
		format:  format,
		hasAddr: hasAddr,
		line:    int32(v.in.Line),
		dSteps:  v.stepIdx,
		dCycles: v.cycOff + 1,
	}
	for i, d := range bc.cumCtr[v.idx] {
		if d != 0 {
			s.ctrs = append(s.ctrs, ctrDelta{idx: int32(i), d: d})
		}
	}
	return s
}

// obsPointStmt reports whether a statement opcode is an observable
// ordering point: it emits trace events (Store, annotations) or writes
// program output (Print). Evaluating an inlined observable value past
// one would reorder the event stream, or emit/print before a fault the
// reference engine delivers first. StLoc is deliberately absent — slot
// contents are not observable after a fault.
func obsPointStmt(op tir.Op) bool {
	switch op {
	case tir.OpStore, tir.OpPrint,
		tir.OpSLoop, tir.OpELoop, tir.OpEOI,
		tir.OpLWL, tir.OpSWL, tir.OpReadStats:
		return true
	}
	return false
}

// noteExec records that val v executes at the current root position:
// checks observable order and def-to-use data hazards, requesting
// materialization when inlining would reorder v past an intervening
// effect.
func (bc *blockCtx) noteExec(v *val) {
	if v.obs {
		if v.stepIdx <= bc.obsLast {
			bc.requests[v] = true
		} else {
			bc.obsLast = v.stepIdx
		}
	}
	switch v.in.Op {
	case tir.OpLdLoc:
		for j := v.idx + 1; j < bc.curPos; j++ {
			if bc.ins[j].Op == tir.OpStLoc && bc.ins[j].Slot == v.in.Slot {
				bc.requests[v] = true
				return
			}
		}
	case tir.OpLoad:
		for j := v.idx + 1; j < bc.curPos; j++ {
			if bc.ins[j].Op == tir.OpStore {
				bc.requests[v] = true
				return
			}
		}
	}
}

// noteRegRead records a register read performed on behalf of owner at the
// current root position; if any instruction between the owner's def site
// and the root redefines the register, the owner must materialize so the
// read happens at its reference position.
func (bc *blockCtx) noteRegRead(reg int32, owner *val) {
	for j := owner.idx + 1; j < bc.curPos; j++ {
		if d, ok := writesReg(&bc.ins[j]); ok && d == reg {
			bc.requests[owner] = true
			return
		}
	}
}

// emitAll walks the block in instruction order building the statement
// list and terminator closure for the current scheduling assignment.
func (bc *blockCtx) emitAll() ([]stmt, func(*State) int32) {
	var stmts []stmt
	var term func(*State) int32
	for i := range bc.ins {
		in := &bc.ins[i]
		v := bc.vals[i]
		bc.curPos = i
		switch {
		case in.Op == tir.OpNop:
		case in.Op == tir.OpBr:
			t := bc.succOf(0)
			term = func(st *State) int32 { return t }
		case in.Op == tir.OpBrIf:
			term = bc.emitBrIf(v)
		case v.valued:
			if v.dead || (!v.mat && v.uses == 1) {
				continue // skipped, or inlined at its consumer
			}
			stmts = append(stmts, bc.emitMat(v))
		default:
			stmts = append(stmts, bc.emitStmt(v))
			if obsPointStmt(in.Op) {
				// Event-emitting (and output-writing) statements are
				// ordering points too: an inlined observable value must
				// not be evaluated across one, or its event/fault would
				// appear out of reference order.
				bc.obsLast = v.stepIdx
			}
		}
	}
	if term == nil {
		bc.fail("block lacks a branch terminator")
		term = func(st *State) int32 { return 0 }
	}
	return stmts, term
}

func (bc *blockCtx) succOf(i int) int32 {
	blk := &bc.f.Blocks[bc.bi]
	if i >= len(blk.Targets) {
		bc.fail("terminator missing target %d", i)
		return 0
	}
	t := blk.Targets[i]
	// The region-local index is resolved later by the caller via succs;
	// here we need the same encoding, so recompute through bc.idxMap.
	if r, ok := bc.idxMap[t]; ok {
		return r
	}
	return ^int32(t)
}

// makeRun fuses a block's statements and terminator into one entry
// closure, with unrolled small arities so straight-line bodies avoid the
// slice-range loop.
func makeRun(stmts []stmt, term func(*State) int32) func(*State) int32 {
	switch len(stmts) {
	case 0:
		return term
	case 1:
		s0 := stmts[0]
		return func(st *State) int32 { s0(st); return term(st) }
	case 2:
		s0, s1 := stmts[0], stmts[1]
		return func(st *State) int32 { s0(st); s1(st); return term(st) }
	case 3:
		s0, s1, s2 := stmts[0], stmts[1], stmts[2]
		return func(st *State) int32 { s0(st); s1(st); s2(st); return term(st) }
	case 4:
		s0, s1, s2, s3 := stmts[0], stmts[1], stmts[2], stmts[3]
		return func(st *State) int32 { s0(st); s1(st); s2(st); s3(st); return term(st) }
	default:
		return func(st *State) int32 {
			for _, s := range stmts {
				s(st)
			}
			return term(st)
		}
	}
}
