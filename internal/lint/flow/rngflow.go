package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"protean/internal/lint"
)

// rngflowAnalyzer tracks seeded *math/rand.Rand streams through the
// callgraph. A deterministic run consumes every stream in one total
// order; three patterns break that once code runs on goroutines:
//
//  1. A draw lexically inside a goroutine body (or a function spawned
//     as one) on a stream the goroutine did not create: the draw
//     interleaves with the parent's draws in OS-scheduler order.
//  2. A draw inside a map iteration: the stream advances in Go's
//     randomized bucket order, so the values land on different
//     consumers run to run even though the sequence is fixed.
//  3. One stream aliased into code reachable from two or more spawn
//     sites (a looped spawn counts twice): today the sites may run
//     sequentially, but once they overlap the shared cursor becomes a
//     race on the draw order. Draws on such a stream outside its
//     owning package are flagged so each alias is either given a
//     derived per-consumer stream or explicitly suppressed with the
//     reason it is safe.
func rngflowAnalyzer(get func([]*lint.Package) *Program) *lint.ProgramAnalyzer {
	return &lint.ProgramAnalyzer{
		Name: "rngflow",
		Doc:  "track seeded rand.Rand streams across the callgraph; flag goroutine, map-order, and multi-spawn-aliased draws",
		Run: func(pkgs []*lint.Package, report func(pos token.Pos, format string, args ...any)) {
			runRngflow(get(pkgs), report)
		},
	}
}

// rngDraw is one method call on a *rand.Rand receiver.
type rngDraw struct {
	call *ast.CallExpr
	node *Node
	// source identifies the stream: the accessor *types.Func for
	// stream-returning method calls (sim.Rand()), the *types.Var for
	// field or package-level streams, nil for locally created streams.
	source types.Object
	// local reports the receiver chains to an object declared inside
	// the drawing function (a locally seeded stream or a parameter).
	local bool
}

func runRngflow(p *Program, report func(pos token.Pos, format string, args ...any)) {
	draws := collectDraws(p)
	reach := p.SpawnReach()

	// Rule 2: draws lexically inside a map iteration.
	for _, d := range draws {
		if rs := enclosingMapRange(d.node, d.call.Pos()); rs != nil {
			report(d.call.Pos(), "rand draw inside a map iteration consumes the stream in randomized map order; iterate sorted keys")
		}
	}

	// Rule 1: draws inside goroutine bodies on streams the goroutine did
	// not create. Spawn roots and the closures they create are goroutine
	// bodies; a locally created stream (rand.New inside the body) is the
	// per-goroutine idiom and stays legal.
	var roots []*Node
	for _, sp := range p.Spawns {
		roots = append(roots, sp.Roots...)
	}
	inGoroutine := p.ReachableFrom(roots, Closure)
	for _, d := range draws {
		if inGoroutine[d.node] && !d.local {
			report(d.call.Pos(), "rand draw inside a goroutine body on a stream the goroutine did not create; derive a per-goroutine stream with rand.New")
		}
	}

	// Rule 3: one stream aliased into code reachable from two or more
	// spawn sites. Group draws by stream source; when the drawing
	// functions' combined spawn weight reaches 2, every draw outside the
	// stream's owning package is a concurrency hazard.
	bySource := map[types.Object][]rngDraw{}
	for _, d := range draws {
		if d.source != nil {
			bySource[d.source] = append(bySource[d.source], d)
		}
	}
	var sources []types.Object
	for src := range bySource {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Pos() < sources[j].Pos() })
	for _, src := range sources {
		group := bySource[src]
		spawnSet := map[*Spawn]bool{}
		var spawns []*Spawn
		for _, d := range group {
			for _, sp := range reach[d.node] {
				if !spawnSet[sp] {
					spawnSet[sp] = true
					spawns = append(spawns, sp)
				}
			}
		}
		if SpawnWeight(spawns) < 2 {
			continue
		}
		owner := ""
		if src.Pkg() != nil {
			owner = src.Pkg().Path()
		}
		for _, d := range group {
			if d.node.Pkg.Path == owner {
				continue // the owning package manages its own stream
			}
			report(d.call.Pos(), "draw on shared stream %s.%s from code reachable from %d goroutine spawn sites; a shard boundary here reorders the stream — derive a child stream per shard",
				owner, src.Name(), SpawnWeight(spawns))
		}
	}
}

// collectDraws finds every method call whose receiver is *math/rand.Rand
// and classifies the stream it draws from, chasing the receiver
// expression through selectors and accessor calls.
func collectDraws(p *Program) []rngDraw {
	var draws []rngDraw
	for _, n := range p.Nodes {
		if n.Body() == nil {
			continue
		}
		node := n
		ast.Inspect(n.Body(), func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok && x.Pos() != node.Pos() {
				return false // literals are their own nodes
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvT := node.Pkg.Info.TypeOf(sel.X)
			if !isRandRand(recvT) {
				return true
			}
			d := rngDraw{call: call, node: node}
			d.source, d.local = streamSource(node, sel.X)
			draws = append(draws, d)
			return true
		})
	}
	sort.Slice(draws, func(i, j int) bool { return draws[i].call.Pos() < draws[j].call.Pos() })
	return draws
}

// streamSource resolves the receiver expression of a draw to the object
// identifying the stream: an accessor method (sim.Rand()), a struct
// field or package-level var of type *rand.Rand, or — for identifiers
// declared inside the drawing function — a local stream.
func streamSource(n *Node, recv ast.Expr) (types.Object, bool) {
	switch e := ast.Unparen(recv).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := n.Pkg.Info.Uses[sel.Sel].(*types.Func); ok {
				return fn, false
			}
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			if fn, ok := n.Pkg.Info.Uses[id].(*types.Func); ok {
				// rand.New(...) inline: a fresh stream, not an alias.
				if fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" && fn.Name() == "New" {
					return nil, true
				}
				return fn, false
			}
		}
	case *ast.SelectorExpr:
		if v, ok := n.Pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v, false
		}
	case *ast.Ident:
		obj := n.Pkg.Info.Uses[e]
		if obj == nil {
			return nil, false
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, false // package-level stream
			}
			// Declared inside the drawing function (local or parameter):
			// local when the declaration sits within this node's extent.
			if fnBody := n.Body(); fnBody != nil && v.Pos() >= nodeExtentStart(n) && v.Pos() < fnBody.End() {
				return nil, true
			}
			// A free variable captured from an enclosing function: treat
			// the variable itself as the stream identity.
			return v, false
		}
	}
	return nil, false
}

// nodeExtentStart is the start of the node's declaration including its
// parameter list, so parameters count as locally declared streams.
func nodeExtentStart(n *Node) token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// enclosingMapRange returns the innermost range-over-map statement in
// n's body that lexically contains pos, or nil.
func enclosingMapRange(n *Node, pos token.Pos) *ast.RangeStmt {
	if n.Body() == nil {
		return nil
	}
	var found *ast.RangeStmt
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		rs, ok := x.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if rs.Body.Pos() <= pos && pos < rs.Body.End() {
			if t := n.Pkg.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					found = rs
				}
			}
		}
		return true
	})
	return found
}

// isRandRand reports whether t is *math/rand.Rand.
func isRandRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "math/rand" && obj.Name() == "Rand"
}
