// Package framelint verifies the split-phase sync contract whole-program:
// every frame slot that is signalled must have been initialised, every
// thread that is enabled must have been installed, and the statically
// countable signal arithmetic must match the slot's declared arity. The
// runtime sanitizer (earth.Config.Sanitize) finds these bugs on the
// schedules a run happens to take; framelint proves or refutes them at
// vet time, across function boundaries.
//
// Checks, on every frame created locally via NewFrame and not escaping
// the analysed flow:
//
//   - (a) signal sites (Sync, the completion legs of Get/Put and the
//     GET_SYNC/DATA_SYNC/BLKMOV helpers) targeting a slot no InitSync
//     ever initialises, and Spawn/InitSync naming a thread no SetThread
//     ever installs — these panic at run time on first dispatch;
//   - (b) statically countable over-signal of one-shot slots (more
//     unconditional signal sites than the counter absorbs) and provable
//     under-signal (every possible signal site counted, the counter can
//     never reach zero: the enabled thread is silently lost — the
//     deadlock shape the paper's split-phase discipline exists to
//     prevent). The over-signal half also runs on frames that escape and
//     on parameter frames, over the sites visible in the function: code
//     the analysis cannot see may add signals, never remove them;
//   - (c) constant slot/thread indices out of range for the frame's
//     NewFrame dimensions;
//   - (e) a thread body signalling the one-shot slot that enables that
//     same thread: the slot is exhausted by the time the body runs, so
//     the signal is guaranteed overflow.
//
// Checks on every call and literal, with no frame tracking (api.go):
//
//   - constant InitSync/NewFrame arguments the runtime rejects (count
//     < 1, negative reset, thread or dimension);
//   - (d) vectored block moves (BlkMovBytesV) whose literal sizes and
//     writes vectors have mismatched lengths — the runtime panics before
//     any transfer;
//   - RetryPolicy/Config composite literals with negative numeric
//     constants (Seed excluded: negative seeds are meaningful).
//
// Like the repo's other analyzers, matching is keyed on type and method
// names (Frame, Ctx, the ops helpers), not import paths, so the checks
// are exercisable from self-contained testdata modules. Function
// summaries (framework.BottomUp) fold the frame effects of same-package
// callees into the caller; frames passed to functions the analysis
// cannot see — other packages, recursion cycles, stores into structures
// — are treated as escaped, and only their over-signal is checked.
package framelint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"earth/internal/analysis/framework"
)

// Analyzer is the framelint pass.
var Analyzer = &framework.Analyzer{
	Name: "framelint",
	Doc: "verify the split-phase sync contract: uninitialised slots, uninstalled " +
		"threads, one-shot over/under-signalling, out-of-range indices, vectored " +
		"block-move shape mismatches, signals after the terminal thread, constant " +
		"frame arguments the runtime rejects and negative RetryPolicy/Config constants",
	Run: run,
}

// dynIndex marks a slot or thread index the analysis cannot resolve to a
// constant.
const dynIndex = -1

// opSite is one recognised frame operation. Sites folded in from a
// callee summary are re-stamped with the caller's call position, so
// diagnostics always point at code in the function being analysed.
type opSite struct {
	pos  token.Pos
	loop bool // lexically under a for/range (or a closure of unknown multiplicity)
	cond bool // lexically under an if/switch/select: may not execute

	idx int64 // slot index (signals/inits) or thread id (sets/spawns); dynIndex if unknown

	// InitSync facts.
	count, reset int64
	hasCount     bool
	hasReset     bool
	enables      int64 // thread the slot enables; dynIndex if unknown
	// For signal sites: the innermost SetThread body the site sits in —
	// which frame installed it and as which thread. A body of frame G
	// signalling frame F is the RSYNC completion idiom, so the identity
	// matters: check (e) applies only when threadFrame is the signalled
	// frame, and multiplicity is resolved against threadFrame's own
	// enables. threadFrame nil (and inThread dynIndex) when the site is
	// not inside any thread body.
	threadFrame types.Object
	inThread    int64
}

// frameFacts accumulates everything the analysed flow does to one frame
// object.
type frameFacts struct {
	obj    types.Object
	newPos token.Pos
	// threads/slots are the NewFrame dimensions; dynIndex when not
	// constant (always for parameter frames).
	threads, slots int64

	inits   []opSite
	sets    []opSite
	signals []opSite
	spawns  []opSite

	escaped  bool
	isParam  bool
	paramIdx int
}

// summary is one function's recorded effects on its *Frame parameters,
// available to callers via framework.BottomUp ordering.
type summary struct {
	// params maps parameter index -> facts. An entry exists for every
	// *Frame parameter, so callers can distinguish "analysed, no effect"
	// from "unknown callee".
	params map[int]*frameFacts
}

func run(pass *framework.Pass) error {
	summaries := map[*types.Func]*summary{}
	framework.BottomUp(pass, func(fn *types.Func, decl *ast.FuncDecl, recursive bool) {
		fa := &funcAnalysis{
			pass:      pass,
			summaries: summaries,
			frames:    map[types.Object]*frameFacts{},
			handled:   map[*ast.Ident]bool{},
		}
		fa.analyze(decl)
		if recursive {
			// Cycle members see incomplete callee summaries; publishing
			// one would let callers trust a partial view. Callers treat
			// the missing summary as an escape instead.
			return
		}
		summaries[fn] = fa.paramSummary(decl)
	})
	checkAPI(pass)
	return nil
}

// funcAnalysis carries the per-function state.
type funcAnalysis struct {
	pass      *framework.Pass
	summaries map[*types.Func]*summary
	frames    map[types.Object]*frameFacts
	handled   map[*ast.Ident]bool
}

// --- type helpers -------------------------------------------------------

// isFrameType reports whether t is (a pointer to) a named type Frame.
func isFrameType(t types.Type) bool {
	n := framework.NamedOf(t)
	return n != nil && n.Obj().Name() == "Frame"
}

// constIdx resolves e to a constant index, or dynIndex.
func (fa *funcAnalysis) constIdx(e ast.Expr) int64 {
	if v, ok := fa.pass.IntConst(e); ok {
		return v
	}
	return dynIndex
}

// rootFrameIdent peels a chain of *Frame-returning method calls
// (f.SetThread(...).InitSync(...)) down to the base frame identifier.
func (fa *funcAnalysis) rootFrameIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if isFrameType(fa.pass.TypeOf(x)) {
				return x
			}
			return nil
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !isFrameType(fa.pass.TypeOf(x)) {
				return nil
			}
			e = sel.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// trackedArg returns the frameFacts for a call argument that is a
// tracked frame identifier, marking the ident handled.
func (fa *funcAnalysis) trackedArg(e ast.Expr) *frameFacts {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	ff := fa.frames[fa.pass.ObjectOf(id)]
	if ff != nil {
		fa.handled[id] = true
	}
	return ff
}

// --- analysis entry -----------------------------------------------------

func (fa *funcAnalysis) analyze(decl *ast.FuncDecl) {
	// Parameter frames: tracked for the summary; their contract checks
	// run in callers, where the frame's dimensions are known.
	if decl.Type.Params != nil {
		idx := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fa.pass.ObjectOf(name); obj != nil && isFrameType(obj.Type()) {
					fa.frames[obj] = &frameFacts{
						obj: obj, newPos: name.Pos(),
						threads: dynIndex, slots: dynIndex,
						isParam: true, paramIdx: idx,
					}
					fa.handled[name] = true
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	// First sweep: find local `f := NewFrame(home, T, S)` definitions, so
	// the op-recording sweep below sees every frame no matter the
	// declaration order (Go closures can reference frames defined later
	// in the source only via escapes, but keeping this flow-insensitive
	// is simpler and safe).
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			fa.trackNewFrame(as)
		}
		return true
	})

	// Second sweep: record every recognised operation with its lexical
	// context.
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			fa.recordCall(call, stack)
		}
		return true
	})

	// Escape sweep: any remaining use of a tracked frame identifier is a
	// flow the analysis does not model (stored, returned, aliased, passed
	// to an unknown function) — skip that frame's checks entirely.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || fa.handled[id] {
			return true
		}
		if ff := fa.frames[fa.pass.ObjectOf(id)]; ff != nil {
			ff.escaped = true
		}
		return true
	})

	objs := make([]types.Object, 0, len(fa.frames))
	for obj := range fa.frames {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		fa.checkFrame(fa.frames[obj])
	}
}

// trackNewFrame tracks the frame a local `f := NewFrame(home, T, S)`
// defines, with T and S when they are constants.
func (fa *funcAnalysis) trackNewFrame(as *ast.AssignStmt) {
	if as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isNewFrameCall(fa.pass, call) {
		return
	}
	obj := fa.pass.ObjectOf(lhs)
	if obj == nil || fa.frames[obj] != nil {
		return
	}
	ff := &frameFacts{obj: obj, newPos: call.Pos(), threads: dynIndex, slots: dynIndex}
	if v, ok := fa.pass.IntConst(call.Args[1]); ok {
		ff.threads = v
	}
	if v, ok := fa.pass.IntConst(call.Args[2]); ok {
		ff.slots = v
	}
	fa.frames[obj] = ff
	fa.handled[lhs] = true
}

// paramSummary extracts the facts recorded against parameter frames.
// Signal sites sitting inside thread bodies of OTHER frames are resolved
// here, where those frames are visible — their multiplicity is baked
// into the loop/cond flags and the (meaningless to callers) frame
// reference dropped.
func (fa *funcAnalysis) paramSummary(decl *ast.FuncDecl) *summary {
	s := &summary{params: map[int]*frameFacts{}}
	for _, ff := range fa.frames {
		if !ff.isParam {
			continue
		}
		for i := range ff.signals {
			sg := &ff.signals[i]
			if sg.threadFrame == nil || sg.threadFrame == ff.obj {
				continue
			}
			enabled, repeats := fa.foreignMult(sg.threadFrame, sg.inThread)
			if repeats {
				sg.loop = true
			}
			if !enabled {
				sg.cond = true
			}
			sg.threadFrame, sg.inThread = nil, dynIndex
		}
		s.params[ff.paramIdx] = ff
	}
	return s
}

func isNewFrameCall(pass *framework.Pass, call *ast.CallExpr) bool {
	name, id := callName(call)
	if name != "NewFrame" || len(call.Args) != 3 {
		return false
	}
	fn, ok := pass.ObjectOf(id).(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() == nil
}

// --- lexical context ----------------------------------------------------

type walkCtx struct {
	loop, cond  bool
	threadFrame types.Object // frame owning the innermost SetThread body; nil if none
	inThread    int64        // its thread id; dynIndex if none/unknown
}

// contextOf derives the lexical execution context of the node at the top
// of the ancestor stack, as seen by frame ff. An ancestor whose child on
// the path also encloses ff's NewFrame runs that child once per frame it
// creates, so it neither repeats nor guards that frame's operations: a
// frame made and signalled inside one loop iteration or one closure call
// is counted per instance. A frame made in an if/for/switch header is
// not inside the body, so the body still guards or repeats its use.
func (fa *funcAnalysis) contextOf(stack []ast.Node, ff *frameFacts) walkCtx {
	ctx := walkCtx{inThread: dynIndex}
	for i, n := range stack[:len(stack)-1] {
		if child := stack[i+1]; child.Pos() <= ff.newPos && ff.newPos < child.End() {
			continue
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			ctx.loop = true
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ctx.cond = true
		case *ast.FuncLit:
			kind, frame, thread := fa.classifyLit(stack, i, n)
			switch kind {
			case litThreadBody:
				ctx.threadFrame, ctx.inThread = frame, thread
			case litDispatchOnce:
				// Runs at most once per issue of the enclosing call; the
				// call's own context already covers repetition.
			default:
				// A closure whose call multiplicity the analysis cannot
				// see (assigned, deferred, go'd, collected): anything in
				// it may run any number of times.
				ctx.loop = true
			}
		}
	}
	return ctx
}

type litKind int

const (
	litUnknown litKind = iota
	litThreadBody
	litDispatchOnce
)

// dispatchLitArg maps call names to the positions of closure arguments
// that execute exactly once per issued operation.
var dispatchLitArg = map[string][]int{
	"Invoke": {2}, "Post": {2}, "Token": {1},
	"Get": {2}, "Put": {2},
	"SetThread":   {1}, // handled as litThreadBody when the frame is tracked
	"SpawnBody":   {1},
	"GetSyncVal":  {},
	"BlkMovBytes": {3},
}

// classifyLit decides how a function literal at stack position i runs:
// as an installed thread body (of which tracked frame, as which thread),
// as a once-per-issue dispatch closure, or unknowably.
func (fa *funcAnalysis) classifyLit(stack []ast.Node, i int, lit *ast.FuncLit) (litKind, types.Object, int64) {
	if i == 0 {
		return litUnknown, nil, dynIndex
	}
	call, ok := stack[i-1].(*ast.CallExpr)
	if !ok {
		return litUnknown, nil, dynIndex
	}
	if call.Fun == lit {
		return litDispatchOnce, nil, dynIndex // immediately invoked
	}
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return litUnknown, nil, dynIndex
	}
	if name == "SetThread" && len(call.Args) == 2 && call.Args[1] == lit {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if base := fa.rootFrameIdent(sel.X); base != nil {
				if obj := fa.pass.ObjectOf(base); fa.frames[obj] != nil {
					return litThreadBody, obj, fa.constIdx(call.Args[0])
				}
			}
		}
	}
	for _, argIdx := range dispatchLitArg[name] {
		if argIdx < len(call.Args) && call.Args[argIdx] == lit {
			return litDispatchOnce, nil, dynIndex
		}
	}
	return litUnknown, nil, dynIndex
}

// --- op recording -------------------------------------------------------

// signalFuncs maps the names of the Ctx primitives and ops-layer helpers
// that signal a (frame, slot) pair to the index of the frame argument;
// the slot argument always follows it. Matching additionally requires
// the argument count and a frame-typed argument, so unrelated functions
// sharing a name are ignored.
var signalFuncs = map[string]int{
	"Sync": 0, "Rsync": 1,
	"Get": 3, "Put": 3, "GetWord": 3,
	"GetSyncVal": 5, "DataSyncVal": 5,
	"GetSyncF64": 4, "GetSyncI64": 4, "DataSyncF64": 4,
	"BlkMovBytes": 4, "BlkMovBytesV": 4,
}

func callName(call *ast.CallExpr) (string, *ast.Ident) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name, f
	case *ast.SelectorExpr:
		return f.Sel.Name, f.Sel
	}
	return "", nil
}

func (fa *funcAnalysis) recordCall(call *ast.CallExpr, stack []ast.Node) {
	name, fnIdent := callName(call)
	if fnIdent == nil {
		return
	}

	// Frame method calls (possibly chained through SetThread/InitSync
	// return values).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isFrameMethod(name) {
		if base := fa.rootFrameIdent(sel.X); base != nil {
			if ff := fa.frames[fa.pass.ObjectOf(base)]; ff != nil {
				fa.handled[base] = true
				fa.recordFrameMethod(ff, name, call, fa.contextOf(stack, ff))
				return
			}
		}
	}

	// Spawn(f, thread) — Ctx method.
	if name == "Spawn" && len(call.Args) == 2 && isFrameType(fa.pass.TypeOf(call.Args[0])) {
		if ff := fa.trackedArg(call.Args[0]); ff != nil {
			ctx := fa.contextOf(stack, ff)
			ff.spawns = append(ff.spawns, opSite{
				pos: call.Pos(), loop: ctx.loop, cond: ctx.cond,
				idx: fa.constIdx(call.Args[1]),
			})
		}
		return
	}

	// Signal helpers: the trailing (f, slot) pair.
	if fIdx, ok := signalFuncs[name]; ok && len(call.Args) == fIdx+2 &&
		isFrameType(fa.pass.TypeOf(call.Args[fIdx])) {
		if ff := fa.trackedArg(call.Args[fIdx]); ff != nil {
			ctx := fa.contextOf(stack, ff)
			ff.signals = append(ff.signals, opSite{
				pos: call.Pos(), loop: ctx.loop, cond: ctx.cond,
				idx:         fa.constIdx(call.Args[fIdx+1]),
				threadFrame: ctx.threadFrame,
				inThread:    ctx.inThread,
			})
		}
		return
	}

	// Same-package calls with frame arguments: fold the callee's summary,
	// or escape when the analysis cannot see the callee.
	var frameArgs []int
	for i, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok && fa.frames[fa.pass.ObjectOf(id)] != nil {
			frameArgs = append(frameArgs, i)
		}
	}
	if len(frameArgs) == 0 {
		return
	}
	callee, _ := fa.pass.ObjectOf(fnIdent).(*types.Func)
	sum := fa.summaries[callee]
	for _, i := range frameArgs {
		ff := fa.trackedArg(call.Args[i])
		if sum == nil {
			ff.escaped = true
			continue
		}
		pf, ok := sum.params[i]
		if !ok {
			// Callee was analysed but this position is not a *Frame
			// parameter it models (e.g. variadic) — be conservative.
			ff.escaped = true
			continue
		}
		fa.fold(ff, pf, call.Pos(), fa.contextOf(stack, ff))
	}
}

func isFrameMethod(name string) bool {
	switch name {
	case "InitSync", "SetThread", "Dec", "ThreadBody", "BeginSanitize", "Sanitized":
		return true
	}
	return false
}

func (fa *funcAnalysis) recordFrameMethod(ff *frameFacts, name string, call *ast.CallExpr, ctx walkCtx) {
	switch name {
	case "InitSync":
		if len(call.Args) != 4 {
			return
		}
		s := opSite{pos: call.Pos(), loop: ctx.loop, cond: ctx.cond,
			idx: fa.constIdx(call.Args[0]), enables: fa.constIdx(call.Args[3])}
		s.count, s.hasCount = fa.pass.IntConst(call.Args[1])
		s.reset, s.hasReset = fa.pass.IntConst(call.Args[2])
		ff.inits = append(ff.inits, s)
	case "SetThread":
		if len(call.Args) != 2 {
			return
		}
		ff.sets = append(ff.sets, opSite{pos: call.Pos(), loop: ctx.loop, cond: ctx.cond,
			idx: fa.constIdx(call.Args[0])})
	case "Dec":
		// The engines' slot decrement, which every signal ends in; a
		// direct call is one more signal site.
		if len(call.Args) != 1 {
			return
		}
		ff.signals = append(ff.signals, opSite{pos: call.Pos(), loop: ctx.loop, cond: ctx.cond,
			idx: fa.constIdx(call.Args[0]), threadFrame: ctx.threadFrame, inThread: ctx.inThread})
	default:
		// ThreadBody/BeginSanitize/Sanitized: engine calls, no contract facts.
	}
}

// fold merges a callee's recorded effects on a parameter frame into the
// caller's facts for the argument, re-stamped at the call site.
func (fa *funcAnalysis) fold(ff, pf *frameFacts, pos token.Pos, ctx walkCtx) {
	if pf.escaped {
		ff.escaped = true
		return
	}
	restamp := func(sites []opSite, signal bool) []opSite {
		out := make([]opSite, 0, len(sites))
		for _, s := range sites {
			s.pos = pos
			s.loop = s.loop || ctx.loop
			s.cond = s.cond || ctx.cond
			if signal {
				switch s.threadFrame {
				case nil:
					// Not inside a body in the callee: the call site's own
					// enclosing body (if any) is the site's context here.
					s.threadFrame, s.inThread = ctx.threadFrame, ctx.inThread
				case pf.obj:
					// Body installed on the parameter frame itself:
					// translate to the argument's identity.
					s.threadFrame = ff.obj
				default:
					// Body of a frame the caller cannot see; paramSummary
					// resolves these, so this only happens for frames it
					// deemed unknowable — assume any multiplicity.
					s.loop = true
					s.threadFrame, s.inThread = nil, dynIndex
				}
			}
			out = append(out, s)
		}
		return out
	}
	ff.inits = append(ff.inits, restamp(pf.inits, false)...)
	ff.sets = append(ff.sets, restamp(pf.sets, false)...)
	ff.spawns = append(ff.spawns, restamp(pf.spawns, false)...)
	ff.signals = append(ff.signals, restamp(pf.signals, true)...)
}

// --- contract checks (a), (b), (c), (e) ---------------------------------

// checkFrame runs the contract checks on one frame. A frame the function
// sees whole — local, never escaping — gets every check. An escaped or
// parameter frame gets only the over-signal half of (b), over the sites
// visible here: code the analysis cannot see may add signals to its
// slots, never remove them.
func (fa *funcAnalysis) checkFrame(ff *frameFacts) {
	fc := fa.newFrameChecks(ff)
	if ff.isParam || ff.escaped {
		fc.checkArity(nil, true)
		return
	}
	fc.checkRanges()
	fc.checkInstalled()
	fc.checkArity(fc.checkTerminal(), false)
}

// frameChecks is one frame's facts with the views the lettered checks
// share. Dynamic-index operations make the corresponding views
// uncountable; each check degrades independently.
type frameChecks struct {
	pass *framework.Pass
	ff   *frameFacts
	name string

	dynInit, dynSet, dynSignal bool

	initsBySlot map[int64][]opSite // constant-slot inits
	setThreads  map[int64]bool     // threads some SetThread installs
	// signals are ff.signals with the multiplicity of the enclosing
	// thread body — of this frame or another tracked one — folded into
	// the flags: a body that can repeat makes its sites unbounded, a body
	// that may never run makes them conditional. Indices match ff.signals.
	signals []opSite
}

func (fa *funcAnalysis) newFrameChecks(ff *frameFacts) *frameChecks {
	fc := &frameChecks{
		pass: fa.pass, ff: ff, name: ff.obj.Name(),
		dynInit: anyDyn(ff.inits), dynSet: anyDyn(ff.sets), dynSignal: anyDyn(ff.signals),
		initsBySlot: map[int64][]opSite{},
		setThreads:  map[int64]bool{},
		signals:     slices.Clone(ff.signals),
	}
	for _, s := range ff.inits {
		if s.idx != dynIndex {
			fc.initsBySlot[s.idx] = append(fc.initsBySlot[s.idx], s)
		}
	}
	for _, s := range ff.sets {
		fc.setThreads[s.idx] = true
	}
	mult := threadMultInfo(ff)
	for i := range fc.signals {
		s := &fc.signals[i]
		if s.threadFrame == nil {
			continue
		}
		var bodyRuns, bodyRepeats bool
		if s.threadFrame == ff.obj {
			bodyRuns, bodyRepeats = mult.of(s.inThread)
		} else {
			bodyRuns, bodyRepeats = fa.foreignMult(s.threadFrame, s.inThread)
		}
		if bodyRepeats {
			s.loop = true
		}
		if !bodyRuns {
			s.cond = true // body never runs; don't count it as certain
		}
	}
	return fc
}

func (fc *frameChecks) inRangeSlot(idx int64) bool {
	return fc.ff.slots == dynIndex || idx < fc.ff.slots
}

func (fc *frameChecks) inRangeThread(idx int64) bool {
	return fc.ff.threads == dynIndex || idx < fc.ff.threads
}

// checkRanges is check (c): constant indices against the NewFrame
// dimensions.
func (fc *frameChecks) checkRanges() {
	ff, name := fc.ff, fc.name
	for _, s := range ff.inits {
		if s.idx != dynIndex && !fc.inRangeSlot(s.idx) {
			fc.pass.Reportf(s.pos, "InitSync on slot %d of frame %s, which has only %d slot(s)",
				s.idx, name, ff.slots)
		}
	}
	for _, s := range fc.signals {
		if s.idx != dynIndex && !fc.inRangeSlot(s.idx) {
			fc.pass.Reportf(s.pos, "signal targets slot %d of frame %s, which has only %d slot(s)",
				s.idx, name, ff.slots)
		}
	}
	for _, s := range ff.sets {
		if s.idx != dynIndex && !fc.inRangeThread(s.idx) {
			fc.pass.Reportf(s.pos, "SetThread id %d out of range for frame %s with %d thread(s)",
				s.idx, name, ff.threads)
		}
	}
	for _, s := range ff.spawns {
		if s.idx != dynIndex && !fc.inRangeThread(s.idx) {
			fc.pass.Reportf(s.pos, "Spawn of thread %d out of range for frame %s with %d thread(s)",
				s.idx, name, ff.threads)
		}
	}
	for _, s := range ff.inits {
		if s.enables != dynIndex && !fc.inRangeThread(s.enables) {
			fc.pass.Reportf(s.pos, "slot %d enables thread %d, but frame %s has only %d thread(s)",
				s.idx, s.enables, name, ff.threads)
		}
	}
}

// checkInstalled is check (a): signals to slots no InitSync initialises,
// and enables or spawns of threads no SetThread installs.
func (fc *frameChecks) checkInstalled() {
	ff, name := fc.ff, fc.name
	if !fc.dynInit {
		for _, s := range fc.signals {
			if s.idx != dynIndex && fc.inRangeSlot(s.idx) && len(fc.initsBySlot[s.idx]) == 0 {
				fc.pass.Reportf(s.pos,
					"signal targets slot %d of frame %s, but no InitSync ever initialises it "+
						"(runtime: \"sync on uninitialised slot\")", s.idx, name)
			}
		}
	}
	if fc.dynSet {
		return
	}
	for _, s := range ff.spawns {
		if s.idx != dynIndex && fc.inRangeThread(s.idx) && !fc.setThreads[s.idx] {
			fc.pass.Reportf(s.pos,
				"Spawn of thread %d of frame %s, but no SetThread ever installs it "+
					"(runtime: \"thread enabled but not set\")", s.idx, name)
		}
	}
	for _, s := range ff.inits {
		if s.enables != dynIndex && fc.inRangeThread(s.enables) && !fc.setThreads[s.enables] {
			fc.pass.Reportf(s.pos,
				"slot %d enables thread %d of frame %s, but no SetThread ever installs it",
				s.idx, s.enables, name)
		}
	}
}

// checkTerminal is check (e): a thread body signalling its own gating
// one-shot slot. By the time the body runs the slot is exhausted, so the
// signal is a guaranteed overflow. Bodies of OTHER frames signalling
// this frame are the RSYNC completion idiom and exempt. It returns the
// indices of the sites it reported, which (b) does not count again.
func (fc *frameChecks) checkTerminal() map[int]bool {
	terminal := map[int]bool{}
	for i, s := range fc.ff.signals {
		if s.idx == dynIndex || s.threadFrame != fc.ff.obj || s.inThread == dynIndex {
			continue
		}
		for _, init := range fc.initsBySlot[s.idx] {
			if init.enables == s.inThread && init.hasReset && init.reset == 0 {
				fc.pass.Reportf(s.pos,
					"thread %d signals slot %d of frame %s, but that one-shot slot is what enables "+
						"thread %d — it is already exhausted when this runs", s.inThread, s.idx, fc.name, s.inThread)
				terminal[i] = true
				break
			}
		}
	}
	return terminal
}

// checkArity is check (b): the one-shot signal arithmetic, per
// fully-resolved slot, skipping the sites in terminal. overOnly drops the
// under-signal half, which needs every site that can ever signal the
// slot in view.
func (fc *frameChecks) checkArity(terminal map[int]bool, overOnly bool) {
	if fc.dynSignal || fc.dynInit {
		return
	}
	slots := make([]int64, 0, len(fc.initsBySlot))
	for s := range fc.initsBySlot {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	for _, slot := range slots {
		init, ok := fc.oneShot(slot)
		if !ok {
			continue
		}
		certain, possible := 0, 0
		unbounded := false
		for i, s := range fc.signals {
			if s.idx != slot {
				continue
			}
			if s.loop {
				unbounded = true
				break
			}
			possible++
			if !s.cond && !terminal[i] {
				certain++
			}
		}
		if unbounded {
			continue
		}
		if int64(certain) > init.count {
			fc.pass.Reportf(init.pos,
				"one-shot slot %d of frame %s takes %d signal(s) but %d unconditional signal "+
					"sites target it across the analysed flow; the extra sync is guaranteed overflow",
				slot, fc.name, init.count, certain)
		} else if !overOnly && int64(possible) < init.count {
			fc.pass.Reportf(init.pos,
				"slot %d of frame %s promises %d signal(s) but only %d signal site(s) can ever "+
					"target it; thread %s can never run (lost-thread deadlock)",
				slot, fc.name, init.count, possible, enablesName(init))
		}
	}
}

// oneShot returns the slot's InitSync when its arity is countable: the
// slot is in range (an out-of-range one is (c)'s), initialised exactly
// once, unconditionally, outside loops, one-shot, with a constant count.
func (fc *frameChecks) oneShot(slot int64) (opSite, bool) {
	inits := fc.initsBySlot[slot]
	if !fc.inRangeSlot(slot) || len(inits) != 1 {
		return opSite{}, false
	}
	init := inits[0]
	ok := !init.loop && !init.cond && init.hasCount && init.hasReset &&
		init.reset == 0 && init.count >= 1
	return init, ok
}

// multInfo answers, per thread of one frame, whether the analysed flow
// can run it at all and whether it can run more than once.
type multInfo struct {
	enabled, repeats map[int64]bool
	// uncertain: an unresolved spawn or InitSync index could enable any
	// thread any number of times.
	uncertain bool
}

// threadMultInfo derives the thread multiplicities from a frame's
// recorded spawns and slot initialisations: a thread repeats when a
// recurring slot (reset != 0), a looped init/spawn, or more than one
// spawn site targets it.
func threadMultInfo(ff *frameFacts) multInfo {
	m := multInfo{enabled: map[int64]bool{}, repeats: map[int64]bool{}}
	spawnCount := map[int64]int{}
	for _, s := range ff.spawns {
		m.enabled[s.idx] = true
		spawnCount[s.idx]++
		if s.loop {
			m.repeats[s.idx] = true
		}
	}
	for t, n := range spawnCount {
		if n > 1 {
			m.repeats[t] = true
		}
	}
	for _, s := range ff.inits {
		if s.enables != dynIndex {
			m.enabled[s.enables] = true
			if !s.hasReset || s.reset != 0 || s.loop {
				m.repeats[s.enables] = true
			}
		}
	}
	m.uncertain = anyDyn(ff.spawns) || anyDyn(ff.inits)
	return m
}

// of reports (canRun, canRepeat) for thread t, conservatively (true,
// true) when the frame's enables are not fully resolved.
func (m multInfo) of(t int64) (bool, bool) {
	if m.uncertain || t == dynIndex {
		return true, true
	}
	return m.enabled[t], m.repeats[t]
}

// foreignMult bounds the multiplicity of thread t of another frame: the
// signal site under scrutiny sits inside that frame's thread body, so
// how often it executes is that frame's business. Unknown, escaped or
// parameter frames (whose enables the caller controls) answer (true,
// true).
func (fa *funcAnalysis) foreignMult(obj types.Object, t int64) (bool, bool) {
	g := fa.frames[obj]
	if g == nil || g.escaped || g.isParam {
		return true, true
	}
	return threadMultInfo(g).of(t)
}

func enablesName(init opSite) string {
	if init.enables == dynIndex {
		return "?"
	}
	return fmt.Sprintf("%d", init.enables)
}

func anyDyn(sites []opSite) bool {
	for _, s := range sites {
		if s.idx == dynIndex {
			return true
		}
	}
	return false
}
