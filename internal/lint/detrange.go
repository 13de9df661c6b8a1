package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrange enforces the replica-determinism invariant from PR 5/7:
// parallel shards and checkpoint/resume replays are differentially
// pinned to produce byte-identical reports, so no observable output
// may depend on Go's randomized map iteration order or on wall-clock
// or math/rand nondeterminism.
//
// Two rule families:
//
//  1. Everywhere: inside the body of a `range` over a map, it flags
//     (a) any write to a checkpoint encoder (*ckpt.Enc method call),
//     (b) any report emission (analysis.Accumulator.Report), and
//     (c) any append to a slice declared before the loop that is not
//     sorted afterwards in the same function. The blessed pattern is
//     collect → sort.Slice → emit, which keeps all three sinks
//     outside the map-ordered region.
//
//  2. In the deterministic core (package engine, parallel, wcp, or
//     ckpt): any use of time.Now or any import of math/rand, outside
//     _test.go files. Timing belongs in the drivers (cmd/*, the
//     session's progress reporting in the root package), never in
//     analysis state.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc: "flag unsorted map iteration flowing into encoders, reports, or accumulated slices,\n" +
		"and wall-clock/math/rand use in the deterministic engine packages",
	Run: runDetrange,
}

// detrangePkgs are the packages (by final import-path element) whose
// control flow must be a pure function of the event stream.
var detrangePkgs = map[string]bool{"engine": true, "parallel": true, "wcp": true, "ckpt": true, "daemon": true}

func runDetrange(pass *Pass) error {
	info := pass.Pkg.Info()
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			detrangeFunc(pass, fd)
		}
	}

	seg := pass.Pkg.Path
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	if !detrangePkgs[seg] {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		if inTestFile(pass.Pkg.Fset(), file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "package %s must stay replica-deterministic: import of %s is forbidden (thread a seeded source through the config instead)", seg, p)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
				fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
				pass.Reportf(sel.Pos(), "package %s must stay replica-deterministic: time.Now makes resumed and live runs diverge", seg)
			}
			return true
		})
	}
	return nil
}

// detrangeFunc applies the map-range sink rules inside one function.
func detrangeFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Sink (a): checkpoint encoder write.
			if recv := recvExpr(call); recv != nil {
				if rt := info.Types[recv].Type; namedIn(rt, "ckpt", "Enc") {
					pass.Reportf(call.Pos(), "checkpoint write inside range over map %s: map iteration order is random, so resumed runs would not be byte-identical; collect keys, sort, then encode", exprString(pass.Pkg.Fset(), rng.X))
					return true
				}
				// Sink (b): report emission into an accumulator.
				if fn := calleeOf(info, call); fn != nil && fn.Name() == "Report" {
					if rt := info.Types[recv].Type; namedIn(rt, "analysis", "Accumulator") {
						pass.Reportf(call.Pos(), "report emitted inside range over map %s: sample selection would depend on map iteration order; collect, sort, then report", exprString(pass.Pkg.Fset(), rng.X))
						return true
					}
				}
			}
			// Sink (c): order-dependent accumulation into an outer slice.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				dst := identOf(call.Args[0])
				if dst == nil {
					return true
				}
				obj := objectOf(info, dst)
				if obj == nil || !obj.Pos().IsValid() || obj.Pos() >= rng.Pos() {
					return true // declared inside the loop: local scratch
				}
				if sortedAfter(info, fd, obj, rng) {
					return true // collect-then-sort: the blessed pattern
				}
				pass.Reportf(call.Pos(), "append to %s inside range over map %s without a later sort: slice order would depend on map iteration order", dst.Name, exprString(pass.Pkg.Fset(), rng.X))
			}
			return true
		})
		return true
	})
}

// sortedAfter reports whether fd contains, after the range statement,
// a sort.*/slices.Sort* call whose first argument is obj.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, obj types.Object, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		name := fn.Name()
		if name != "Slice" && name != "SliceStable" && name != "Sort" &&
			!strings.HasPrefix(name, "Sort") &&
			name != "Strings" && name != "Ints" {
			return true
		}
		if len(call.Args) > 0 {
			arg := call.Args[0]
			if star, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok {
				arg = star.X
			}
			if id := identOf(arg); id != nil && objectOf(info, id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
