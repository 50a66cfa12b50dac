package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"protean/internal/lint"
)

// sharedstateAnalyzer is the concurrency-safety audit: it computes
// which mutable state is written from code reachable from more than
// one goroutine spawn site without synchronization. Three kinds of write are flagged:
//
//   - a package-level variable written from code whose goroutine spawn
//     weight is >= 2 (one looped spawn counts twice: it stands for N
//     concurrent goroutines);
//   - a variable captured from an enclosing function and written inside
//     a goroutine body with spawn weight >= 2;
//   - a receiver field written in a method reachable from two or more
//     *distinct* spawn sites — objects confined to one spawned
//     computation (a scenario's engine behind one worker spawn) are
//     goroutine-private and stay quiet.
//
// Writes textually after a .Lock()/.RLock() call in the same function
// (with no intervening non-deferred Unlock) are treated as synchronized.
func sharedstateAnalyzer(get func([]*lint.Package) *Program) *lint.ProgramAnalyzer {
	return &lint.ProgramAnalyzer{
		Name: "sharedstate",
		Doc:  "flag unsynchronized writes to state reachable from multiple goroutine spawn sites",
		Run: func(pkgs []*lint.Package, report func(pos token.Pos, format string, args ...any)) {
			runSharedstate(get(pkgs), report)
		},
	}
}

func runSharedstate(p *Program, report func(pos token.Pos, format string, args ...any)) {
	reach := p.SpawnReach()
	var roots []*Node
	for _, sp := range p.Spawns {
		roots = append(roots, sp.Roots...)
	}
	goroutineBodies := p.ReachableFrom(roots, Closure)

	for _, n := range p.Nodes {
		if n.Body() == nil {
			continue
		}
		spawns := reach[n]
		weight := SpawnWeight(spawns)
		if weight == 0 {
			continue // never runs on a spawned goroutine
		}
		node := n
		locks := lockRanges(node)
		recvObj := receiverObject(node)

		for _, w := range collectWrites(node) {
			if locks.covers(w.pos) {
				continue
			}
			root := rootIdentOf(w.lhs)
			if root == nil {
				continue
			}
			obj := node.Pkg.Info.Uses[root]
			if obj == nil {
				obj = node.Pkg.Info.Defs[root]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			switch {
			case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
				if weight >= 2 {
					report(w.pos, "package-level %s written from code reachable from %d goroutine spawns without synchronization; shard-unsafe",
						v.Name(), weight)
				}
			case recvObj != nil && v == recvObj:
				// Receiver field write: hazardous only when the method is
				// reachable from two distinct spawn sites — one spawned
				// computation owns its objects. pool.Free's own bookkeeping
				// writes (items, stats) are exempt: the freelist contract —
				// one lane, or root barrier context with lanes paused —
				// already serializes them, and poolflow guards the contract.
				if isPoolFreeReceiver(node) {
					continue
				}
				_, isBareRecv := w.lhs.(*ast.Ident)
				if !isBareRecv && len(spawns) >= 2 {
					report(w.pos, "receiver field %s written in a method reachable from %d distinct goroutine spawn sites without synchronization",
						types.ExprString(w.lhs), len(spawns))
				}
			case goroutineBodies[node] && !v.IsField() && !withinNode(node, v.Pos()):
				if weight >= 2 {
					report(w.pos, "captured %s written inside a goroutine body spawned %d× without synchronization; give each goroutine its own slot or lock",
						v.Name(), weight)
				}
			}
		}
	}
}

// write is one assignment or inc/dec target.
type write struct {
	lhs ast.Expr
	pos token.Pos
}

// collectWrites returns every assignment target in n's own body (nested
// literals are their own nodes), position-ordered.
func collectWrites(n *Node) []write {
	var out []write
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // new declaration, not a mutation of shared state
			}
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				out = append(out, write{lhs: lhs, pos: lhs.Pos()})
			}
		case *ast.IncDecStmt:
			out = append(out, write{lhs: s.X, pos: s.X.Pos()})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// lockSpans approximates mutex protection textually: a write is covered
// if a .Lock()/.RLock() call precedes it in the same function body with
// no non-deferred .Unlock()/.RUnlock() in between. Deferred unlocks
// hold to function end, matching the idiomatic defer mu.Unlock().
type lockSpans struct {
	locks   []token.Pos
	unlocks []token.Pos // non-deferred only
}

func (ls lockSpans) covers(pos token.Pos) bool {
	covered := false
	var lastLock token.Pos
	for _, l := range ls.locks {
		if l < pos && (!covered || l > lastLock) {
			lastLock = l
			covered = true
		}
	}
	if !covered {
		return false
	}
	for _, u := range ls.unlocks {
		if u > lastLock && u < pos {
			return false
		}
	}
	return true
}

func lockRanges(n *Node) lockSpans {
	var ls lockSpans
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false // deferred unlocks do not end protection
		case *ast.ExprStmt:
			if name, ok := mutexCallName(s.X); ok {
				switch name {
				case "Lock", "RLock":
					ls.locks = append(ls.locks, s.Pos())
				case "Unlock", "RUnlock":
					ls.unlocks = append(ls.unlocks, s.Pos())
				}
			}
		}
		return true
	})
	return ls
}

func mutexCallName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.Sel.Name, true
	}
	return "", false
}

// isPoolFreeReceiver reports whether n is a method on pool.Free (the
// deterministic freelist), whose single-owner contract substitutes for
// synchronization.
func isPoolFreeReceiver(n *Node) bool {
	if n.Obj == nil {
		return false
	}
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == "Free" && obj.Pkg() != nil && obj.Pkg().Name() == "pool"
}

// receiverObject returns the *types.Var bound to n's method receiver,
// or nil for plain functions and literals.
func receiverObject(n *Node) *types.Var {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return nil
	}
	names := n.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, _ := n.Pkg.Info.Defs[names[0]].(*types.Var)
	return v
}
