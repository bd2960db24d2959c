package core

import (
	"fmt"
	"sync"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// This file is the runtime half of the compiled path: the kprogram
// representation compile.go lowers clauses and expressions into, the
// cheap per-execution bind step that resolves name slots for a clause
// against the actual binding table and for an expression in its scope,
// the WHERE filter and the sharded kernel executors.
// Semantics are defined by the tree-walking oracle in interp_test.go —
// every stride, error position, error string and merge order here
// replicates it bit-for-bit (compile_diff_test.go holds the proof
// obligations).

// cexpr is one closure-compiled expression. Constants additionally
// carry their folded value so enclosing nodes can fold further.
type cexpr struct {
	isConst bool
	cval    value.Value
	fn      func(k *kctx) (value.Value, error)
}

// kinstr opcodes.
const (
	kiLocal  uint8 = iota // assign clause-local slot
	kiGlobal              // stage a global accumulator input
	kiVacc                // vertex accumulator: staged (ACCUM) or live (POST)
	kiError               // statement the interpreter rejects when executed
)

// kinstr is one compiled ACCUM/POST-ACCUM statement. Conditional
// statements set cond and carry their branches; all other fields
// describe a flat assignment/input statement.
type kinstr struct {
	cond *cexpr
	then []kinstr
	els  []kinstr

	op    uint8
	err   error // kiError: fires when the statement executes
	local int   // kiLocal slot
	// slot indexes gwrites (kiGlobal), vwrites (ACCUM kiVacc) or
	// vstores (POST kiVacc); -1 with wErr set for undeclared targets.
	slot   int
	wErr   error
	name   string
	spec   *accum.Spec
	fast   accum.FastOp
	assign bool // POST kiVacc: '=' (Assign) vs anything else (Input)
	recv   *cexpr
	// recvSlot is kiVacc's receiver as a name slot when it is an
	// unshadowed identifier (read unboxed through vertexOf), else -1.
	recvSlot int
	rhs      *cexpr
	// At most one of rhsI/rhsF is set: a type-specialized RHS
	// evaluator for a fast target whose expression type is statically
	// certain. On errUnboxedMiss the statement re-runs rhs, whose boxed
	// evaluation owns exact interpreter semantics (null skips, error
	// objects); any other error is one rhs would have raised first.
	rhsI func(*kctx) (int64, error)
	rhsF func(*kctx) (float64, error)
}

// writeTarget is one distinct accumulator a program writes.
type writeTarget struct {
	name string
	spec *accum.Spec
	fast accum.FastOp
}

// kprogram is one compiled clause: instructions plus the slot tables
// the per-execution bind step fills. Programs live in the engine's
// plan cache and are shared by concurrent runs; all per-execution
// state lives in kbind/kctx/kdeltas.
type kprogram struct {
	post   bool
	instrs []kinstr // one per top-level clause statement

	names   []string // identifier slots, bound per clause execution
	nameIdx map[string]int

	localNames []string // clause-local variable slots
	localIdx   map[string]int

	vsets   []string // Ident.size() receivers, resolved per execution
	vsetIdx map[string]int

	gsnaps   []string // global accumulator reads, snapshot at bind
	gsnapIdx map[string]int

	vstoreNames []string // vertex accumulator stores (reads + POST writes)
	vstoreIdx   map[string]int
	vstoreFast  []accum.FastOp // per store: its declared spec's fold shape

	gwrites   []writeTarget // global write slots (staged deltas)
	gwriteIdx map[string]int

	vwrites   []writeTarget // ACCUM vertex write slots (staged deltas)
	vwriteIdx map[string]int

	attrOffsets int // attribute refs resolved to column offsets (explain)
	// stmts counts the clause's assignment statements (IF branches
	// included) and unboxed those with a typed RHS evaluator (explain).
	stmts, unboxed int

	// freeBinds holds the binds finished executions returned, for the
	// next execution to reuse; it never holds more than the program's
	// peak number of concurrent executions. Unlike a sync.Pool it
	// survives GC and is not per-P, so a warm program's bind step
	// allocates nothing.
	bindMu    sync.Mutex
	freeBinds []*kbind
}

func newKprogram(post bool) *kprogram {
	return &kprogram{
		post:      post,
		nameIdx:   map[string]int{},
		localIdx:  map[string]int{},
		vsetIdx:   map[string]int{},
		gsnapIdx:  map[string]int{},
		vstoreIdx: map[string]int{},
		gwriteIdx: map[string]int{},
		vwriteIdx: map[string]int{},
	}
}

func (p *kprogram) nameSlot(name string) int {
	if i, ok := p.nameIdx[name]; ok {
		return i
	}
	p.nameIdx[name] = len(p.names)
	p.names = append(p.names, name)
	return len(p.names) - 1
}

func (p *kprogram) localSlot(name string) int {
	if i, ok := p.localIdx[name]; ok {
		return i
	}
	p.localIdx[name] = len(p.localNames)
	p.localNames = append(p.localNames, name)
	return len(p.localNames) - 1
}

func (p *kprogram) vsetSlot(name string) int {
	if i, ok := p.vsetIdx[name]; ok {
		return i
	}
	p.vsetIdx[name] = len(p.vsets)
	p.vsets = append(p.vsets, name)
	return len(p.vsets) - 1
}

func (p *kprogram) gsnapSlot(name string) int {
	if i, ok := p.gsnapIdx[name]; ok {
		return i
	}
	p.gsnapIdx[name] = len(p.gsnaps)
	p.gsnaps = append(p.gsnaps, name)
	return len(p.gsnaps) - 1
}

func (p *kprogram) vstoreSlot(name string, spec *accum.Spec) int {
	if i, ok := p.vstoreIdx[name]; ok {
		return i
	}
	p.vstoreIdx[name] = len(p.vstoreNames)
	p.vstoreNames = append(p.vstoreNames, name)
	p.vstoreFast = append(p.vstoreFast, accum.ClassifyFast(spec))
	return len(p.vstoreNames) - 1
}

// typedPrev reports whether a POST-ACCUM program records the @acc'
// value of store slot si unboxed (Sum<int|float>, whose value always
// has the element kind) rather than in kctx.prevVacc.
func (p *kprogram) typedPrev(si int) bool {
	op := p.vstoreFast[si]
	return p.post && (op == accum.FastSumInt || op == accum.FastSumFloat)
}

func (p *kprogram) gwriteSlot(name string, spec *accum.Spec) int {
	if i, ok := p.gwriteIdx[name]; ok {
		return i
	}
	p.gwriteIdx[name] = len(p.gwrites)
	p.gwrites = append(p.gwrites, writeTarget{name: name, spec: spec, fast: accum.ClassifyFast(spec)})
	return len(p.gwrites) - 1
}

func (p *kprogram) vwriteSlot(name string, spec *accum.Spec) int {
	if i, ok := p.vwriteIdx[name]; ok {
		return i
	}
	p.vwriteIdx[name] = len(p.vwrites)
	p.vwrites = append(p.vwrites, writeTarget{name: name, spec: spec, fast: accum.ClassifyFast(spec)})
	return len(p.vwrites) - 1
}

// ---- bind step ----------------------------------------------------------------

// boundName kinds.
const (
	bnValue   uint8 = iota // fixed value (param, run local, null)
	bnVert                 // vertex alias → column of row.verts
	bnEdge                 // edge alias → column of row.edges
	bnRel                  // relational alias → column of row.rels
	bnCurVert              // POST-ACCUM group alias → current vertex
	bnErr                  // unresolvable → error on first read
)

type boundName struct {
	kind uint8
	col  int
	val  value.Value
	err  error
}

// kbind is the per-clause-execution binding of a program's slots:
// name resolutions, the global-accumulator snapshot (safe because both
// clauses stage global writes until after the clause) and vertex
// store pointers. Recycled per program.
type kbind struct {
	names []boundName
	// vsetSizes holds, per vsets slot, the size of the run's vertex
	// set of that name, or -1 when Ident.size() is an ordinary method
	// call this execution.
	vsetSizes []int64
	gsnap     []value.Value
	vstores   []*vaccStore
	// k is the WHERE filter's execution context, recycled with the
	// bind so a filter pass allocates nothing.
	k kctx
	// prev holds a POST-ACCUM program's unboxed @acc' records, one per
	// store slot (empty for slots !typedPrev); a record is live where
	// its stamp equals prevGen, which advances once per group
	// execution. Both persist with the recycled bind, so a warm clause
	// execution allocates no record.
	prev    []prevRec
	prevGen uint32
}

// prevRec is one store's @acc' record: the clause-start value of each
// vertex the current group execution has written.
type prevRec struct {
	stamp []uint32
	i     []int64   // Sum<int> stores
	f     []float64 // Sum<float> stores
}

// preparePrev sizes the bind's @acc' records for an n-vertex snapshot.
func (b *kbind) preparePrev(p *kprogram, n int) {
	if b.prev == nil {
		b.prev = make([]prevRec, len(p.vstoreNames))
	}
	for si := range b.prev {
		r := &b.prev[si]
		if !p.typedPrev(si) || len(r.stamp) >= n {
			continue
		}
		c := n + n/4 // headroom: the graph grows between runs
		r.stamp = make([]uint32, c)
		if p.vstoreFast[si] == accum.FastSumInt {
			r.i = make([]int64, c)
		} else {
			r.f = make([]float64, c)
		}
	}
}

// nextPrevGen starts a group execution: every record goes stale.
func (b *kbind) nextPrevGen() {
	b.prevGen++
	if b.prevGen == 0 { // wrapped: stale stamps could collide, reset
		for i := range b.prev {
			clear(b.prev[i].stamp)
		}
		b.prevGen = 1
	}
}

func (p *kprogram) getBind() *kbind {
	p.bindMu.Lock()
	if n := len(p.freeBinds); n > 0 {
		b := p.freeBinds[n-1]
		p.freeBinds = p.freeBinds[:n-1]
		p.bindMu.Unlock()
		return b
	}
	p.bindMu.Unlock()
	return &kbind{
		names:     make([]boundName, len(p.names)),
		vsetSizes: make([]int64, len(p.vsets)),
		gsnap:     make([]value.Value, len(p.gsnaps)),
		vstores:   make([]*vaccStore, len(p.vstoreNames)),
	}
}

func (p *kprogram) putBind(b *kbind) {
	// Drop references so a recycled bind does not pin a finished run's
	// values and stores.
	clear(b.names)
	clear(b.gsnap)
	clear(b.vstores)
	b.k = kctx{}
	p.bindMu.Lock()
	p.freeBinds = append(p.freeBinds, b)
	p.bindMu.Unlock()
}

func (p *kprogram) bindShared(rs *runState, b *kbind) {
	for i, name := range p.gsnaps {
		b.gsnap[i] = rs.globals[name].Value()
	}
	for i, name := range p.vstoreNames {
		b.vstores[i] = rs.vaccs[name]
	}
}

// bindAccumNames resolves identifier slots in the interpreter's ACCUM
// resolution order: pattern aliases (vertex, edge, relational), run
// locals, parameters, the null literal, else a lazy unknown-identifier
// error.
func (p *kprogram) bindAccumNames(rs *runState, bt *bindingTable, b *kbind) {
	for i, name := range p.names {
		bn := &b.names[i]
		if col, ok := bt.vertIdx[name]; ok {
			*bn = boundName{kind: bnVert, col: col}
			continue
		}
		if col, ok := bt.edgeIdx[name]; ok {
			*bn = boundName{kind: bnEdge, col: col}
			continue
		}
		if col, ok := bt.relIdx[name]; ok {
			*bn = boundName{kind: bnRel, col: col}
			continue
		}
		p.bindOuterName(rs, name, bn)
	}
	p.bindVsetSizes(rs, b)
}

// bindPostNames resolves identifier slots for one POST-ACCUM group.
// Only the group's own alias is in scope as a vertex (the grouping
// walk already rejected statements referencing edge aliases or two
// vertex aliases, so other alias slots are never read); relational
// aliases are not in POST scope at all, matching the interpreter's
// per-group environment.
func (p *kprogram) bindPostNames(rs *runState, bt *bindingTable, b *kbind, alias string) {
	for i, name := range p.names {
		bn := &b.names[i]
		if alias != "" && name == alias {
			*bn = boundName{kind: bnCurVert}
			continue
		}
		if _, ok := bt.vertIdx[name]; ok {
			*bn = boundName{kind: bnErr, err: fmt.Errorf("unknown identifier %q", name)}
			continue
		}
		if _, ok := bt.edgeIdx[name]; ok {
			*bn = boundName{kind: bnErr, err: fmt.Errorf("unknown identifier %q", name)}
			continue
		}
		p.bindOuterName(rs, name, bn)
	}
	p.bindVsetSizes(rs, b)
}

// bindVertexNames resolves identifier slots in statement scope (alias
// "") and vertex scope: alias is the current vertex, and every other
// name — another alias of the block included — resolves as a
// statement-level name.
func (p *kprogram) bindVertexNames(rs *runState, b *kbind, alias string) {
	for i, name := range p.names {
		if alias != "" && name == alias {
			b.names[i] = boundName{kind: bnCurVert}
			continue
		}
		p.bindOuterName(rs, name, &b.names[i])
	}
	p.bindVsetSizes(rs, b)
}

func (p *kprogram) bindOuterName(rs *runState, name string, bn *boundName) {
	if v, ok := rs.locals[name]; ok {
		*bn = boundName{kind: bnValue, val: v}
		return
	}
	if v, ok := rs.params[name]; ok {
		*bn = boundName{kind: bnValue, val: v}
		return
	}
	if name == "null" || name == "NULL" {
		*bn = boundName{kind: bnValue, val: value.Null}
		return
	}
	*bn = boundName{kind: bnErr, err: fmt.Errorf("unknown identifier %q", name)}
}

// bindVsetSizes resolves each Ident.size() receiver by evalMethod's
// rule, after the names are bound: a name bound to a pattern alias in
// scope (a binding-row column, or the POST-ACCUM group's vertex) makes
// it a method call on that alias; otherwise a vertex set of that name
// is counted. A clause local of the same name does not shadow the set.
func (p *kprogram) bindVsetSizes(rs *runState, b *kbind) {
	for i, name := range p.vsets {
		b.vsetSizes[i] = -1
		switch b.names[p.nameIdx[name]].kind {
		case bnVert, bnEdge, bnRel, bnCurVert:
			continue
		}
		if ids, ok := rs.vsets[name]; ok {
			b.vsetSizes[i] = int64(len(ids))
		}
	}
}

// ---- execution context --------------------------------------------------------

// prevKey names one vertex's accumulator in a POST-ACCUM @acc' record.
type prevKey struct {
	vid  graph.VID
	name string
}

// kctx is one worker's execution context. Clause locals live in
// generation-stamped slots: bumping gen invalidates every local in
// O(1), replacing the interpreter's per-row map clear.
type kctx struct {
	rs   *runState
	row  *bindingRow
	mult uint64
	b    *kbind
	d    *kdeltas

	locals   []value.Value
	localGen []uint32
	gen      uint32

	// POST-ACCUM state: the group's current vertex (boxed and as an
	// id) and the @acc' clause-start values recorded before first write
	// for stores without an unboxed record (kbind.prev).
	cur      value.Value
	curVID   graph.VID
	prevVacc map[prevKey]value.Value

	// Statement and output scopes (bindScope): the binding table of a
	// row or group scope, the name vertex scope binds to cur, and the
	// grouped output and current group of group scope. The oracle
	// rebuilds the interpreter's environment from them.
	bt    *bindingTable
	alias string
	out   *compiledOutput
	grp   *sqlGroup

	// misses counts statements whose unboxed evaluation missed and
	// re-ran boxed (RunStats.AccumUnboxedMisses).
	misses int64
}

func (k *kctx) nextGen() {
	k.gen++
	if k.gen == 0 { // wrapped: stamps are ambiguous, reset them
		clear(k.localGen)
		k.gen = 1
	}
}

// vertexOf resolves name slot ni to a vertex id without boxing: a
// vertex alias's binding column, the POST-ACCUM group's vertex, or a
// bound vertex value. ok is false for anything else, whose boxed read
// yields the value or error the caller must then produce.
func (k *kctx) vertexOf(ni int) (graph.VID, bool) {
	switch bn := &k.b.names[ni]; bn.kind {
	case bnVert:
		return k.row.verts[bn.col], true
	case bnCurVert:
		return k.curVID, true
	case bnValue:
		if bn.val.Kind() == value.KindVertex {
			return graph.VID(bn.val.VertexID()), true
		}
	}
	return 0, false
}

// recvVertex evaluates a kiVacc receiver: unboxed when the slot
// resolves, else through the boxed receiver with its error text.
func (k *kctx) recvVertex(ins *kinstr) (graph.VID, error) {
	if ins.recvSlot >= 0 {
		if vid, ok := k.vertexOf(ins.recvSlot); ok {
			return vid, nil
		}
	}
	vv, err := ins.recv.fn(k)
	if err != nil {
		return 0, err
	}
	if vv.Kind() != value.KindVertex {
		return 0, fmt.Errorf("@%s receiver is %s, not a vertex", ins.name, vv.Kind())
	}
	return graph.VID(vv.VertexID()), nil
}

func (k *kctx) resolveName(ni int) (value.Value, error) {
	bn := &k.b.names[ni]
	switch bn.kind {
	case bnValue:
		return bn.val, nil
	case bnVert:
		return value.NewVertex(int64(k.row.verts[bn.col])), nil
	case bnEdge:
		return value.NewEdge(int64(k.row.edges[bn.col])), nil
	case bnRel:
		return k.row.rels[bn.col], nil
	case bnCurVert:
		return k.cur, nil
	default:
		return value.Null, bn.err
	}
}

// bindScope binds p for one statement or output scope and returns its
// context: names resolve against bt's aliases in row and group scope
// (bt non-nil), else as statement-level names with alias, if any, the
// current vertex. The caller sets k.row, k.cur/curVID or k.grp as it
// goes, and hands the bind back with p.putBind(k.b).
func (rs *runState) bindScope(p *kprogram, bt *bindingTable, alias string) *kctx {
	b := p.getBind()
	p.bindShared(rs, b)
	if bt != nil {
		p.bindAccumNames(rs, bt, b)
	} else {
		p.bindVertexNames(rs, b, alias)
	}
	b.k = kctx{rs: rs, b: b, bt: bt, alias: alias}
	return &b.k
}

// eval evaluates one statement or output expression e through its
// compiled closure ce, or through the oracle when one is set.
func (k *kctx) eval(e gsql.Expr, ce *cexpr) (value.Value, error) {
	if oracle != nil {
		return oracle.expr(k, e)
	}
	return ce.fn(k)
}

// ---- worker-local deltas ------------------------------------------------------

// kdeltas is one worker's staged accumulator inputs for one program:
// unboxed cells for fast-path targets, lazily-created boxed deltas for
// the rest. Slices index the program's write-slot tables.
type kdeltas struct {
	fastG  []accum.FastCell
	boxedG []accum.Accumulator
	fastV  []*vslab
	boxedV []map[graph.VID]accum.Accumulator
}

func newKdeltas(p *kprogram) *kdeltas {
	d := &kdeltas{}
	if n := len(p.gwrites); n > 0 {
		d.fastG = make([]accum.FastCell, n)
		d.boxedG = make([]accum.Accumulator, n)
		for i := range p.gwrites {
			if p.gwrites[i].fast != accum.FastNone {
				d.fastG[i] = accum.InitFast(p.gwrites[i].fast)
			}
		}
	}
	if n := len(p.vwrites); n > 0 {
		d.fastV = make([]*vslab, n)
		d.boxedV = make([]map[graph.VID]accum.Accumulator, n)
	}
	return d
}

func releaseKdeltas(d *kdeltas) {
	for i, s := range d.fastV {
		if s != nil {
			putVslab(s)
			d.fastV[i] = nil
		}
	}
}

// vslab is a pooled per-(worker, accumulator) delta slab over the
// graph's vertex space: epoch-stamped cells plus the touched list that
// drives the merge. The same idiom as the SDMC kernel scratch
// (internal/match/scratch.go): reuse across runs without clearing —
// bumping the epoch invalidates every stamp at once.
type vslab struct {
	n       int
	epoch   uint32
	stamp   []uint32
	cells   []accum.FastCell
	touched []graph.VID
}

// vslabPools holds one sync.Pool per graph size.
var vslabPools sync.Map // int → *sync.Pool

func vslabPool(n int) *sync.Pool {
	if p, ok := vslabPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := vslabPools.LoadOrStore(n, &sync.Pool{New: func() any {
		return &vslab{n: n, stamp: make([]uint32, n), cells: make([]accum.FastCell, n)}
	}})
	return p.(*sync.Pool)
}

func getVslab(n int) *vslab {
	s := vslabPool(n).Get().(*vslab)
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, reset
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	return s
}

func putVslab(s *vslab) { vslabPool(s.n).Put(s) }

// cell returns the vertex's delta cell, initializing it on first touch
// this epoch.
func (s *vslab) cell(vid graph.VID, op accum.FastOp) *accum.FastCell {
	if s.stamp[vid] != s.epoch {
		s.stamp[vid] = s.epoch
		s.cells[vid] = accum.InitFast(op)
		s.touched = append(s.touched, vid)
	}
	return &s.cells[vid]
}

// ---- instruction execution ----------------------------------------------------

// evalTyped runs a statement's unboxed RHS: ok reports its result in
// iv (rhsI) or fv (rhsF). With ok false and no error the statement
// runs boxed — it has no typed RHS, or the typed one missed, which is
// counted.
func (k *kctx) evalTyped(ins *kinstr) (iv int64, fv float64, ok bool, err error) {
	switch {
	case ins.rhsI != nil:
		iv, err = ins.rhsI(k)
	case ins.rhsF != nil:
		fv, err = ins.rhsF(k)
	default:
		return 0, 0, false, nil
	}
	if err == nil {
		return iv, fv, true, nil
	}
	if err == errUnboxedMiss {
		k.misses++
		err = nil
	}
	return 0, 0, false, err
}

// foldTyped folds a typed result into a fast cell. Unboxed success
// implies non-null input and a declared, type-compatible fast target.
func foldTyped(ins *kinstr, c *accum.FastCell, iv int64, fv float64, mult uint64) {
	if ins.rhsI != nil {
		accum.FoldFastInt(ins.fast, c, iv, mult)
	} else {
		accum.FoldFastFloat(ins.fast, c, fv, mult)
	}
}

// runAccInstrs executes a compiled ACCUM statement list for the
// current row: null inputs skip, undeclared targets error after the
// null skip, input errors wrap with the target name — the
// interpreter's accStmtSeq, order and text.
func (k *kctx) runAccInstrs(instrs []kinstr) error {
	for i := range instrs {
		ins := &instrs[i]
		if ins.cond != nil {
			cv, err := ins.cond.fn(k)
			if err != nil {
				return err
			}
			branch := ins.then
			if !cv.Truthy() {
				branch = ins.els
			}
			if err := k.runAccInstrs(branch); err != nil {
				return err
			}
			continue
		}
		switch ins.op {
		case kiError:
			return ins.err
		case kiLocal:
			v, err := ins.rhs.fn(k)
			if err != nil {
				return err
			}
			k.locals[ins.local] = v
			k.localGen[ins.local] = k.gen
		case kiGlobal:
			iv, fv, ok, err := k.evalTyped(ins)
			if err != nil {
				return err
			}
			if ok {
				foldTyped(ins, &k.d.fastG[ins.slot], iv, fv, k.mult)
				continue
			}
			v, err := ins.rhs.fn(k)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // null inputs are skipped (CASE without ELSE)
			}
			if ins.wErr != nil {
				return ins.wErr
			}
			if ins.fast != accum.FastNone {
				if err := accum.FoldFast(ins.fast, &k.d.fastG[ins.slot], ins.spec, v, k.mult); err != nil {
					return fmt.Errorf("@@%s += : %w", ins.name, err)
				}
			} else {
				a := k.d.boxedG[ins.slot]
				if a == nil {
					var err error
					if a, err = accum.New(ins.spec); err != nil {
						return err
					}
					k.d.boxedG[ins.slot] = a
				}
				if err := a.Input(v, k.mult); err != nil {
					return fmt.Errorf("@@%s += : %w", ins.name, err)
				}
			}
		case kiVacc:
			vid, err := k.recvVertex(ins)
			if err != nil {
				return err
			}
			iv, fv, ok, err := k.evalTyped(ins)
			if err != nil {
				return err
			}
			if ok {
				foldTyped(ins, k.vcell(ins, vid), iv, fv, k.mult)
				continue
			}
			v, err := ins.rhs.fn(k)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // null inputs are skipped (CASE without ELSE)
			}
			if ins.wErr != nil {
				return ins.wErr
			}
			if ins.fast != accum.FastNone {
				if err := accum.FoldFast(ins.fast, k.vcell(ins, vid), ins.spec, v, k.mult); err != nil {
					return fmt.Errorf("@%s += : %w", ins.name, err)
				}
			} else {
				m := k.d.boxedV[ins.slot]
				if m == nil {
					m = map[graph.VID]accum.Accumulator{}
					k.d.boxedV[ins.slot] = m
				}
				a := m[vid]
				if a == nil {
					if a, err = accum.New(ins.spec); err != nil {
						return err
					}
					m[vid] = a
				}
				if err := a.Input(v, k.mult); err != nil {
					return fmt.Errorf("@%s += : %w", ins.name, err)
				}
			}
		}
	}
	return nil
}

// vcell returns the worker's delta cell for a fast vertex target,
// taking the target's slab from the pool on first use.
func (k *kctx) vcell(ins *kinstr, vid graph.VID) *accum.FastCell {
	s := k.d.fastV[ins.slot]
	if s == nil {
		s = getVslab(k.rs.g.NumVertices())
		k.d.fastV[ins.slot] = s
	}
	return s.cell(vid, ins.fast)
}

// runPostInstrs executes compiled POST-ACCUM statements for the
// current vertex: global inputs are staged with no null skip and
// unwrapped errors, vertex writes apply immediately to the live store
// after recording the @acc' clause-start value — postAccumStmtSeq
// exactly.
func (k *kctx) runPostInstrs(instrs []kinstr) error {
	for i := range instrs {
		ins := &instrs[i]
		if ins.cond != nil {
			cv, err := ins.cond.fn(k)
			if err != nil {
				return err
			}
			branch := ins.then
			if !cv.Truthy() {
				branch = ins.els
			}
			if err := k.runPostInstrs(branch); err != nil {
				return err
			}
			continue
		}
		switch ins.op {
		case kiError:
			return ins.err
		case kiLocal:
			v, err := ins.rhs.fn(k)
			if err != nil {
				return err
			}
			k.locals[ins.local] = v
			k.localGen[ins.local] = k.gen
		case kiGlobal:
			iv, fv, ok, err := k.evalTyped(ins)
			if err != nil {
				return err
			}
			if ok {
				foldTyped(ins, &k.d.fastG[ins.slot], iv, fv, 1)
				continue
			}
			v, err := ins.rhs.fn(k)
			if err != nil {
				return err
			}
			if ins.wErr != nil {
				return ins.wErr
			}
			if ins.fast != accum.FastNone {
				if err := accum.FoldFast(ins.fast, &k.d.fastG[ins.slot], ins.spec, v, 1); err != nil {
					return err
				}
			} else {
				a := k.d.boxedG[ins.slot]
				if a == nil {
					var err error
					if a, err = accum.New(ins.spec); err != nil {
						return err
					}
					k.d.boxedG[ins.slot] = a
				}
				if err := a.Input(v, 1); err != nil {
					return err
				}
			}
		case kiVacc:
			vid, err := k.recvVertex(ins)
			if err != nil {
				return err
			}
			if ins.wErr != nil {
				return ins.wErr
			}
			store := k.b.vstores[ins.slot]
			if err := k.recordPrev(ins, store, vid); err != nil {
				return err
			}
			iv, fv, ok, err := k.evalTyped(ins)
			if err != nil {
				return err
			}
			var v value.Value
			if !ok {
				if v, err = ins.rhs.fn(k); err != nil {
					return err
				}
			}
			a, err := store.get(vid)
			if err != nil {
				return err
			}
			switch {
			case ok && ins.rhsI != nil:
				err = accum.PutInt(a, iv, ins.assign)
			case ok:
				err = accum.PutFloat(a, fv, ins.assign)
			case ins.assign:
				err = a.Assign(v)
			default:
				err = a.Input(v, 1)
			}
			if err != nil {
				if ins.assign {
					return fmt.Errorf("@%s = : %w", ins.name, err)
				}
				return fmt.Errorf("@%s += : %w", ins.name, err)
			}
		}
	}
	return nil
}

// recordPrev records vid's clause-start value of the written store for
// @acc' before the group execution's first write to it: unboxed where
// the bind keeps a typed record, else in prevVacc.
func (k *kctx) recordPrev(ins *kinstr, store *vaccStore, vid graph.VID) error {
	if r := &k.b.prev[ins.slot]; r.stamp != nil {
		if r.stamp[vid] != k.b.prevGen {
			r.stamp[vid] = k.b.prevGen
			// A Sum store's value always has its element kind, so the
			// typed peek cannot miss.
			if r.f != nil {
				r.f[vid], _ = store.peekFloat(vid)
			} else {
				r.i[vid], _ = store.peekInt(vid)
			}
		}
		return nil
	}
	pk := prevKey{vid, ins.name}
	if _, recorded := k.prevVacc[pk]; !recorded {
		pv, err := store.peekValue(vid)
		if err != nil {
			return err
		}
		k.prevVacc[pk] = pv
	}
	return nil
}

// prevValue is the boxed read of vid's @acc' record in POST-ACCUM
// store slot si, ok false when the group execution has not written it.
func (k *kctx) prevValue(si int, name string, vid graph.VID) (value.Value, bool) {
	if r := &k.b.prev[si]; r.stamp != nil {
		if r.stamp[vid] != k.b.prevGen {
			return value.Null, false
		}
		if r.f != nil {
			return value.NewFloat(r.f[vid]), true
		}
		return value.NewInt(r.i[vid]), true
	}
	pv, ok := k.prevVacc[prevKey{vid, name}]
	return pv, ok
}

// ---- clause executors ---------------------------------------------------------

// filterWhereCompiled is filterWhere over a compiled predicate: names
// bind once per execution in the interpreter's WHERE resolution order
// (aliases, run locals, parameters, null), then one serial pass keeps
// the rows whose predicate is truthy — same rows, same cancellation
// stride, same first error in row order and the same wrap.
func (rs *runState) filterWhereCompiled(p *kprogram, pred *cexpr, bt *bindingTable) error {
	b := p.getBind()
	defer p.putBind(b)
	p.bindShared(rs, b)
	p.bindAccumNames(rs, bt, b)
	k := &b.k
	*k = kctx{rs: rs, b: b}
	out := bt.rows[:0]
	for ri := range bt.rows {
		if ri&4095 == 0 {
			if err := rs.checkCancel(); err != nil {
				return err
			}
		}
		k.row = &bt.rows[ri]
		ok, err := pred.fn(k)
		if err != nil {
			return fmt.Errorf("WHERE: %w", err)
		}
		if ok.Truthy() {
			out = append(out, bt.rows[ri])
		}
	}
	bt.rows = out
	return nil
}

// mergeKernelDeltas reduces one worker's staged deltas for one program
// into the live stores.
func (rs *runState) mergeKernelDeltas(p *kprogram, d *kdeltas) error {
	for i := range p.gwrites {
		gw := &p.gwrites[i]
		if gw.fast != accum.FastNone {
			if c := &d.fastG[i]; c.Touched {
				if err := accum.MergeFast(rs.globals[gw.name], gw.fast, c); err != nil {
					return err
				}
			}
			continue
		}
		if a := d.boxedG[i]; a != nil {
			if err := rs.globals[gw.name].Merge(a); err != nil {
				return err
			}
		}
	}
	for i := range p.vwrites {
		vw := &p.vwrites[i]
		store := rs.vaccs[vw.name]
		if s := d.fastV[i]; s != nil {
			for _, vid := range s.touched {
				live, err := store.get(vid)
				if err != nil {
					return err
				}
				if err := accum.MergeFast(live, vw.fast, &s.cells[vid]); err != nil {
					return err
				}
			}
		}
		if m := d.boxedV[i]; m != nil {
			for vid, a := range m {
				live, err := store.get(vid)
				if err != nil {
					return err
				}
				if err := live.Merge(a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// execAccumKernels runs the compiled ACCUM programs of one or more
// fused blocks in a single sharded pass over the binding table. With
// one program this is exactly the interpreter's execAccumClause
// (shards, strides, error selection by worker index, merge order);
// with several, each block keeps its own per-worker first-error and
// deltas, errors select by (block, worker) — the order consecutive
// sequential passes would have surfaced them — and nothing merges on
// any error, just like a failing sequential pass never merges.
func (rs *runState) execAccumKernels(progs []*kprogram, bt *bindingTable, sp *trace.Span) error {
	nb := len(progs)
	binds := make([]*kbind, nb)
	for i, p := range progs {
		b := p.getBind()
		p.bindShared(rs, b)
		p.bindAccumNames(rs, bt, b)
		binds[i] = b
	}
	defer func() {
		for i, p := range progs {
			p.putBind(binds[i])
		}
	}()
	maxLocals := 0
	for _, p := range progs {
		if len(p.localNames) > maxLocals {
			maxLocals = len(p.localNames)
		}
	}

	workers := rs.e.workers()
	if workers > len(bt.rows) {
		workers = len(bt.rows)
	}
	if workers < 1 {
		workers = 1
	}
	sp.SetInt("workers", int64(workers))

	type wstate struct {
		k      kctx
		ds     []*kdeltas
		errs   []error // first error per block, in this worker
		cancel error
	}
	newW := func() *wstate {
		w := &wstate{
			k:    kctx{rs: rs, locals: make([]value.Value, maxLocals), localGen: make([]uint32, maxLocals)},
			ds:   make([]*kdeltas, nb),
			errs: make([]error, nb),
		}
		for i, p := range progs {
			w.ds[i] = newKdeltas(p)
		}
		return w
	}
	var ws []*wstate
	defer func() {
		for _, w := range ws {
			for _, d := range w.ds {
				releaseKdeltas(d)
			}
		}
	}()

	runShard := func(st *wstate, rows []bindingRow) {
		k := &st.k
		alive := nb
		execRow := func(row *bindingRow, mult uint64) {
			k.row = row
			k.mult = mult
			for b := 0; b < nb; b++ {
				if st.errs[b] != nil {
					continue
				}
				p := progs[b]
				if len(p.instrs) == 0 {
					continue
				}
				k.b = binds[b]
				k.d = st.ds[b]
				k.nextGen()
				if err := k.runAccInstrs(p.instrs); err != nil {
					st.errs[b] = err
					alive--
				}
			}
		}
		for ri := range rows {
			row := &rows[ri]
			if ri&255 == 0 {
				if err := rs.checkCancel(); err != nil {
					st.cancel = err
					return
				}
			}
			if rs.e.opts.NoMultiplicityShortcut {
				const maxReplay = 1 << 32
				if row.mult > maxReplay {
					err := fmt.Errorf("binding multiplicity %d exceeds the %d replay limit with the multiplicity shortcut disabled", row.mult, uint64(maxReplay))
					for b := 0; b < nb; b++ {
						if st.errs[b] == nil {
							st.errs[b] = err
						}
					}
					return
				}
				for i := uint64(0); i < row.mult; i++ {
					if i&8191 == 0 {
						if err := rs.checkCancel(); err != nil {
							st.cancel = err
							return
						}
					}
					execRow(row, 1)
					if st.errs[0] != nil || alive == 0 {
						return
					}
				}
				continue
			}
			execRow(row, row.mult)
			// Once block 0 errored the selection outcome is fixed (its
			// error wins over every later block in every worker), so
			// this worker can stop — like its interpreter shard would.
			if st.errs[0] != nil || alive == 0 {
				return
			}
		}
	}

	if workers <= 1 {
		st := newW()
		ws = append(ws, st)
		runShard(st, bt.rows)
	} else {
		shardSize := (len(bt.rows) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * shardSize
			hi := lo + shardSize
			if hi > len(bt.rows) {
				hi = len(bt.rows)
			}
			if lo >= hi {
				break
			}
			st := newW()
			ws = append(ws, st)
			wg.Add(1)
			go func(st *wstate, rows []bindingRow) {
				defer wg.Done()
				runShard(st, rows)
			}(st, bt.rows[lo:hi])
		}
		wg.Wait()
	}
	for _, st := range ws {
		rs.res.Stats.AccumUnboxedMisses += st.k.misses
	}

	// Error selection: lowest block first (consecutive sequential
	// passes fail at the first failing pass), then lowest worker index
	// within it — interpreter order. A worker's cancellation belongs
	// to the first pass still running, i.e. block 0.
	for b := 0; b < nb; b++ {
		for _, st := range ws {
			if b == 0 && st.cancel != nil {
				return st.cancel
			}
			if st.errs[b] != nil {
				return st.errs[b]
			}
		}
	}

	// Reduce block-major in worker order: per accumulator this is the
	// exact merge sequence the sequential passes produce.
	for b := 0; b < nb; b++ {
		for _, st := range ws {
			if err := rs.mergeKernelDeltas(progs[b], st.ds[b]); err != nil {
				return err
			}
		}
	}
	return nil
}

// execPostAccumCompiled runs a compiled POST-ACCUM clause: statements
// group by their referenced vertex alias (reusing the interpreter's
// grouping walk and its errors), each group executes once per distinct
// bound vertex in row order, vertex writes land immediately, global
// inputs stage and merge after the clause.
func (rs *runState) execPostAccumCompiled(p *kprogram, stmts []gsql.AccStmt, bt *bindingTable) error {
	groups := map[string][]int{}
	var groupOrder []string
	for i := range stmts {
		alias, err := postAccumAlias(&stmts[i], bt)
		if err != nil {
			return err
		}
		if _, seen := groups[alias]; !seen {
			groupOrder = append(groupOrder, alias)
		}
		groups[alias] = append(groups[alias], i)
	}
	b := p.getBind()
	defer p.putBind(b)
	p.bindShared(rs, b)
	b.preparePrev(p, rs.g.NumVertices())
	d := newKdeltas(p)
	k := &kctx{
		rs: rs, b: b, d: d, mult: 1,
		locals:   make([]value.Value, len(p.localNames)),
		localGen: make([]uint32, len(p.localNames)),
		prevVacc: map[prevKey]value.Value{},
	}
	defer func() { rs.res.Stats.AccumUnboxedMisses += k.misses }()
	runGroup := func(idxs []int) error {
		k.nextGen()
		b.nextPrevGen()
		clear(k.prevVacc)
		for _, ix := range idxs {
			if err := k.runPostInstrs(p.instrs[ix : ix+1]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, alias := range groupOrder {
		idxs := groups[alias]
		p.bindPostNames(rs, bt, b, alias)
		if alias == "" {
			k.cur = value.Null
			if err := runGroup(idxs); err != nil {
				return err
			}
			continue
		}
		col := bt.vertIdx[alias]
		seen := make([]bool, rs.g.NumVertices())
		for ri := range bt.rows {
			if ri&1023 == 0 {
				if err := rs.checkCancel(); err != nil {
					return err
				}
			}
			v := bt.rows[ri].verts[col]
			if seen[v] {
				continue
			}
			seen[v] = true
			k.cur, k.curVID = value.NewVertex(int64(v)), v
			if err := runGroup(idxs); err != nil {
				return err
			}
		}
	}
	return rs.mergeKernelDeltas(p, d)
}

// ---- dispatch -----------------------------------------------------------------

// runFusedGroup executes a fused run of SELECT blocks: one expansion,
// one WHERE pass, one combined ACCUM kernel pass, then each block's
// POST-ACCUM and outputs in statement order.
func (rs *runState) runFusedGroup(g *fusionGroup) error {
	sp := rs.prof.Start("select")
	defer sp.End()
	sp.SetInt("fused_blocks", int64(len(g.sels)))
	sp.SetInt("fused_stmts", int64(g.nstmts))
	first := g.sels[0]
	bt, err := rs.buildBindings(first.From, sp)
	if err != nil {
		return err
	}
	if err := rs.runWhere(first, bt, sp); err != nil {
		return err
	}
	rs.res.Stats.Selects += int64(len(g.sels))
	rs.res.Stats.BindingRows += int64(len(bt.rows))
	rs.res.Stats.FusionBlocksFused += int64(len(g.sels))
	sp.SetInt("binding_rows", int64(len(bt.rows)))
	if g.nstmts > 0 {
		progs := make([]*kprogram, len(g.sels))
		for i, sel := range g.sels {
			progs[i] = rs.plan.selects[sel].acc
		}
		asp := sp.Start("accum")
		asp.SetInt("rows", int64(len(bt.rows)))
		rs.res.Stats.AccumCompiledStmts += int64(g.nstmts)
		err := rs.execAccumKernels(progs, bt, asp)
		asp.End()
		if err != nil {
			return fmt.Errorf("ACCUM: %w", err)
		}
	}
	for i, sel := range g.sels {
		if err := rs.runPostAndOutputs(sel, bt, g.assignTos[i], sp); err != nil {
			return err
		}
	}
	return nil
}
