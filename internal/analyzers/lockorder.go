package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the package's interprocedural lock-acquisition
// graph and reports cycles as potential deadlocks. Nodes are lock
// classes named by owning type and field ("Client.mu", "conn.pendMu")
// or by package-level variable ("logMu"); an edge A→B is recorded when
// B is acquired — directly or anywhere inside a callee reached without
// releasing — while A is held. Any strongly-connected component (or a
// self-edge, which is an immediate sync.Mutex self-deadlock) is
// reported once per participating acquisition site. Goroutine bodies
// are excluded (a spawned goroutine does not hold its parent's locks);
// deferred unlocks hold to function end, exactly as lockio models
// them. Output is deterministic: nodes, edges, and cycles are sorted,
// so two runs over the same tree are byte-identical.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "interprocedural lock-acquisition graph over named mutexes; any cycle is a potential deadlock",
	Run:  runLockOrder,
}

// lockEdge is one "acquired B while holding A" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrder{
		pass:      pass,
		decls:     packageFuncDecls(pass),
		summaries: map[*types.Func][]string{},
	}
	// Deterministic sweep order: files as loaded (sorted by the loader),
	// declarations in source order.
	var edges []lockEdge
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			edges = append(edges, lo.sweep(fd.Body)...)
		}
	}
	reportLockCycles(pass, edges)
	return nil
}

type lockOrder struct {
	pass      *Pass
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func][]string
}

// lockOp is one ordered lock/unlock/call occurrence in a function body.
type lockOp struct {
	pos      token.Pos
	kind     int // 0 lock, 1 unlock, 2 call
	key      string
	deferred bool
	until    token.Pos // deferred unlock: end of the defer's enclosing block
	callee   *types.Func
}

// heldLock is one entry of the sweep's held set, kept as a key-sorted
// slice so edge emission order is deterministic.
type heldLock struct {
	key   string
	until token.Pos // non-zero: released when the sweep passes this position
}

// sweep walks one function body in source order, maintaining the held
// set, and returns the lock-order edges it witnesses. Nested function
// literals and go statements are excluded — they run on their own
// schedule. A deferred unlock holds its lock to the end of the block
// the defer sits in: for the whole function when deferred at the top,
// but not past an early-returning branch (`if x { mu.Lock(); defer
// mu.Unlock(); ...; return }` does not hold mu over the code below).
func (lo *lockOrder) sweep(body *ast.BlockStmt) []lockEdge {
	ops := lo.collectOps(body)
	var edges []lockEdge
	var held []heldLock
	find := func(key string) int {
		for i := range held {
			if held[i].key == key {
				return i
			}
		}
		return -1
	}
	for _, op := range ops {
		// Expire deferred releases whose block ended before this op.
		kept := held[:0]
		for _, h := range held {
			if h.until == 0 || h.until >= op.pos {
				kept = append(kept, h)
			}
		}
		held = kept
		switch op.kind {
		case 0:
			for _, h := range held {
				edges = append(edges, lockEdge{from: h.key, to: op.key, pos: op.pos})
			}
			if find(op.key) < 0 {
				held = append(held, heldLock{key: op.key})
				sort.Slice(held, func(i, j int) bool { return held[i].key < held[j].key })
			}
		case 1:
			i := find(op.key)
			if i < 0 {
				continue
			}
			if op.deferred {
				held[i].until = op.until
			} else {
				held = append(held[:i], held[i+1:]...)
			}
		case 2:
			if len(held) == 0 {
				continue
			}
			for _, to := range lo.summary(op.callee, nil) {
				for _, h := range held {
					edges = append(edges, lockEdge{from: h.key, to: to, pos: op.pos})
				}
			}
		}
	}
	return edges
}

// collectOps gathers the ordered lock events and same-package calls of
// one body. enclosingBlockEnd tracks the innermost block around each
// defer so deferred unlocks can expire with their branch.
func (lo *lockOrder) collectOps(body *ast.BlockStmt) []lockOp {
	var ops []lockOp
	var walk func(n ast.Node, inDefer bool, deferEnd token.Pos)
	walk = func(n ast.Node, inDefer bool, deferEnd token.Pos) {
		blockEnd := body.End()
		var nodes []ast.Node // descended-into ancestors
		var ends []token.Pos // blockEnd to restore when leaving a block
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				top := nodes[len(nodes)-1]
				nodes = nodes[:len(nodes)-1]
				if _, ok := top.(*ast.BlockStmt); ok {
					blockEnd = ends[len(ends)-1]
					ends = ends[:len(ends)-1]
				}
				return true
			}
			switch m := m.(type) {
			case *ast.BlockStmt:
				ends = append(ends, blockEnd)
				blockEnd = m.End()
			case *ast.FuncLit:
				return false // runs on its own schedule
			case *ast.GoStmt:
				return false // spawned goroutine does not hold our locks
			case *ast.DeferStmt:
				walk(m.Call, true, blockEnd)
				return false
			case *ast.CallExpr:
				if op, ok := lo.classify(m, inDefer); ok {
					if inDefer {
						op.until = deferEnd
					}
					ops = append(ops, op)
				}
			}
			nodes = append(nodes, m)
			return true
		})
	}
	walk(body, false, body.End())
	sort.Slice(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops
}

// classify decides whether call is a mutex operation or a resolvable
// same-package call worth summarizing.
func (lo *lockOrder) classify(call *ast.CallExpr, inDefer bool) (lockOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Plain function call f(...): summarize if declared here.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if fn, ok := lo.pass.TypesInfo.Uses[id].(*types.Func); ok && lo.decls[fn] != nil {
				return lockOp{pos: call.Pos(), kind: 2, callee: fn}, true
			}
		}
		return lockOp{}, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if isSyncMutexMethod(lo.pass, sel) {
			key := lo.lockClass(sel)
			if key == "" {
				return lockOp{}, false
			}
			kind := 0
			if name == "Unlock" || name == "RUnlock" {
				kind = 1
			}
			return lockOp{pos: call.Pos(), kind: kind, key: key, deferred: inDefer}, true
		}
	}
	if fn, ok := lo.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && lo.decls[fn] != nil {
		return lockOp{pos: call.Pos(), kind: 2, callee: fn}, true
	}
	return lockOp{}, false
}

// lockClass names the lock a `<recv>.mu.Lock()` call operates on so
// that acquisitions of the same per-instance lock from different
// methods collapse into one node: "Type.field" for a field mutex,
// the variable name for a package-level mutex, "Type" for an embedded
// mutex locked through its owner, and the lexical expression as a last
// resort.
func (lo *lockOrder) lockClass(sel *ast.SelectorExpr) string {
	switch x := unparen(sel.X).(type) {
	case *ast.Ident:
		obj, ok := lo.pass.TypesInfo.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if obj.Parent() == lo.pass.Pkg.Scope() {
			return obj.Name() // package-level var: "logMu"
		}
		// An embedded mutex locked through its owner (s.Lock()) is one
		// lock class per owning type; a plain local sync.Mutex keeps its
		// identifier name.
		if n := namedTypeName(obj.Type()); n != "" && !isSyncMutexType(obj.Type()) {
			return n
		}
		return x.Name
	case *ast.SelectorExpr:
		if s, ok := lo.pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			if owner := namedTypeName(lo.pass.TypesInfo.TypeOf(x.X)); owner != "" {
				return owner + "." + x.Sel.Name
			}
		}
		if v, ok := lo.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.Parent() == lo.pass.Pkg.Scope() {
			return x.Sel.Name
		}
		return exprKey(x)
	}
	return exprKey(sel.X)
}

// summary returns the sorted set of lock classes fn may acquire
// anywhere in its body or transitively through same-package callees.
// Memoized; recursion through the call graph is cut by the visiting
// set.
func (lo *lockOrder) summary(fn *types.Func, visiting map[*types.Func]bool) []string {
	if s, ok := lo.summaries[fn]; ok {
		return s
	}
	if visiting[fn] {
		return nil
	}
	decl := lo.decls[fn]
	if decl == nil || decl.Body == nil {
		return nil
	}
	if visiting == nil {
		visiting = map[*types.Func]bool{}
	}
	visiting[fn] = true
	seen := map[string]bool{}
	var acq []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			acq = append(acq, k)
		}
	}
	for _, op := range lo.collectOps(decl.Body) {
		switch op.kind {
		case 0:
			add(op.key)
		case 2:
			for _, k := range lo.summary(op.callee, visiting) {
				add(k)
			}
		}
	}
	delete(visiting, fn)
	sort.Strings(acq)
	lo.summaries[fn] = acq
	return acq
}

// reportLockCycles condenses the edge list into a graph, finds its
// strongly-connected components, and reports every acquisition edge
// that participates in a cycle, in deterministic order.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	// Dedupe to the earliest position per (from, to); collect nodes and
	// pairs as slices alongside the maps so no map iteration order ever
	// reaches the output.
	type pair struct{ from, to string }
	first := map[pair]token.Pos{}
	adj := map[string][]string{}
	seenNode := map[string]bool{}
	var sorted []string
	var pairs []pair
	addNode := func(n string) {
		if !seenNode[n] {
			seenNode[n] = true
			sorted = append(sorted, n)
		}
	}
	for _, e := range edges {
		addNode(e.from)
		addNode(e.to)
		p := pair{e.from, e.to}
		if at, ok := first[p]; !ok || e.pos < at {
			if !ok {
				adj[e.from] = append(adj[e.from], e.to)
				pairs = append(pairs, p)
			}
			first[p] = e.pos
		}
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		sort.Strings(adj[n])
	}
	scc := tarjanSCC(sorted, adj)
	comp := map[string]int{}
	for i, c := range scc {
		for _, n := range c {
			comp[n] = i
		}
	}
	for _, c := range scc {
		cyclic := len(c) > 1
		if !cyclic {
			// Single node: cyclic only with a self-edge.
			if _, ok := first[pair{c[0], c[0]}]; ok {
				cyclic = true
			}
		}
		if !cyclic {
			continue
		}
		members := append([]string(nil), c...)
		sort.Strings(members)
		label := strings.Join(members, " -> ") + " -> " + members[0]
		if len(members) == 1 {
			label = members[0] + " -> " + members[0]
		}
		// Report each intra-component edge at its earliest acquisition
		// site, sorted for stable output.
		var ps []pair
		for _, p := range pairs {
			if comp[p.from] == comp[p.to] && comp[p.from] == comp[members[0]] {
				if len(members) > 1 || (p.from == members[0] && p.to == members[0]) {
					ps = append(ps, p)
				}
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].from != ps[j].from {
				return ps[i].from < ps[j].from
			}
			return ps[i].to < ps[j].to
		})
		for _, p := range ps {
			if p.from == p.to {
				pass.Reportf(first[p], "lock-order: %s re-acquired while already held (self-deadlock for sync.Mutex)", p.from)
				continue
			}
			pass.Reportf(first[p], "lock-order cycle %s: %s acquired here while %s is held; a concurrent path acquires them in the opposite order", label, p.to, p.from)
		}
	}
}

// namedTypeName returns the name of t's named type, dereferencing one
// pointer level; "" for anonymous types.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// tarjanSCC computes strongly-connected components over the sorted node
// list; the deterministic visit order makes the output stable.
func tarjanSCC(nodes []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var c []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c = append(c, w)
				if w == v {
					break
				}
			}
			out = append(out, c)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return out
}

// isSyncMutexType reports whether t (after one pointer deref) is
// sync.Mutex or sync.RWMutex itself.
func isSyncMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}
