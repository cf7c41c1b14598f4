package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIterDet guards the byte-identical-output guarantee: in the packages
// that produce deterministic artifacts (unfolding segments, state graphs,
// covers, gate netlists), iterating a map while appending to a slice,
// writing output or feeding a hash bakes Go's randomized map order into the
// artifact unless a deterministic sort follows.  This is exactly the class
// of bug that would silently change a segment from run to run, which the
// pinned segment hashes and the Workers(1)≡Workers(N) output identity
// enforce.
var MapIterDet = &Analyzer{
	Name: "mapiterdet",
	Doc: "flags `for range` over a map whose body appends to a slice, writes output or feeds\n" +
		"a hash without a subsequent deterministic sort, in the determinism-critical packages\n" +
		"(internal/{unfolding,stategraph,resolve,boolcover,gatelib} and gates)",
	Filter: func(pkg *Package) bool {
		return pathHasSuffix(pkg.PkgPath,
			"internal/unfolding", "internal/stategraph", "internal/resolve",
			"internal/boolcover", "internal/gatelib", "gates")
	},
	Run: runMapIterDet,
}

func runMapIterDet(pass *Pass) error {
	for _, f := range pass.Pkg.Syntax {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			sink := orderSink(pass, rng)
			if sink == "" {
				return true
			}
			if sortedAfter(pass, rng, stack) {
				return true
			}
			pass.Reportf(rng.For,
				"map iteration feeds an order-sensitive sink (%s) with no deterministic sort after the loop; "+
					"map order is randomized and will break byte-identical output — collect into a slice and sort it, "+
					"or sort the keys first", sink)
			return true
		})
	}
	return nil
}

// orderSink classifies the loop body's first order-sensitive operation:
// appending to a variable declared outside the loop, writing through a
// Write*/Fprint*/Print*/Sum/Encode-shaped callee, or sending on a channel.
func orderSink(pass *Pass, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
			return false
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "append" && appendEscapesLoop(pass, n, rng) {
					sink = "append to a slice declared outside the loop"
					return false
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Fprint") ||
					strings.HasPrefix(name, "Print") || name == "Sum" || name == "Encode" {
					sink = "call to " + name
					return false
				}
			}
		}
		return true
	})
	return sink
}

// appendEscapesLoop reports whether the append target is declared outside
// the range statement — appends to loop-local scratch are order-free as long
// as the scratch doesn't escape, and the escape would be its own append.
func appendEscapesLoop(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		// append to a field or index expression: treat as escaping.
		return true
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedAfter reports whether a sort call follows the range statement inside
// the enclosing function — `sort.X(...)`, `slices.SortX(...)` or any callee
// whose name contains "sort"/"Sort" (the project's canonicalizing helpers).
func sortedAfter(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	fn := enclosingFunc(stack)
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if pkg, name := pass.pkgFunc(call); pkg == "sort" || pkg == "slices" ||
			strings.Contains(name, "sort") || strings.Contains(name, "Sort") {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}
