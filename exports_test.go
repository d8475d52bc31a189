package scale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods in internal/
// that no non-test code names, each with the reason it stays. Keys are the
// package directory under internal/, then the function, or the receiver type
// and the method: "graph.Decode", "sched.(degreesDesc).Less".
var unreferencedAllowed = map[string]string{
	// Interface methods the standard library calls.
	"cli.(UsageError).Unwrap":                       "errors.As and errors.Is call it",
	"fault.(CellError).Unwrap":                      "errors.As and errors.Is call it",
	"fault.(PanicError).Unwrap":                     "errors.As and errors.Is call it",
	"shard.(permanentErr).Unwrap":                   "errors.As and errors.Is call it",
	"sched.(degreesDesc).Less":                      "sort.Interface; sort.Sort calls it",
	"sched.(degreesDesc).Swap":                      "sort.Interface; sort.Sort calls it",
	"sched.(taskSorter).Less":                       "sort.Interface; sort.Sort calls it",
	"sched.(taskSorter).Swap":                       "sort.Interface; sort.Sort calls it",
	"serve.(edgesJSON).UnmarshalJSON":               "json.Unmarshaler; encoding/json calls it",
	"serve.(featuresJSON).UnmarshalJSON":            "json.Unmarshaler; encoding/json calls it",
	"shard/chaosnet.(resetErr).Timeout":             "net.Error; injected resets answer like real network errors",
	"shard/chaosnet.(resetErr).Temporary":           "net.Error; injected resets answer like real network errors",
	"shard/chaosnet.NewTransport":                   "chaos harness; only tests import shard/chaosnet",
	"bench/faultinject.(Plan).Wrap":                 "fault-injection harness; only tests import bench/faultinject",
	"dyn.EncodeBatch":                               "SCD1 reference encoder; serve's tests post its frames",
	"graph.Decode":                                  "SCG1 reader; binary /v1/infer bodies are to call it",
	"graph.Path":                                    "graph fixture several packages' tests share",
	"graph.Star":                                    "graph fixture several packages' tests share",
	"graph.RMAT":                                    "graph fixture several packages' tests share",
	"core/micro.NewRing":                            "micro-simulator; core's cross-validation tests drive it",
	"core/micro.Max":                                "micro-simulator; core's cross-validation tests drive it",
	"core/micro.Dispatch":                           "micro-simulator; its tests check the Fig. 5 dispatcher",
	"core/micro.(AggResult).Utilization":            "micro-simulator accessor its tests read",
	"core/micro.(UpdResult).Utilization":            "micro-simulator accessor its tests read",
	"core/micro.(ShiftRegisterArray).Utilization":   "micro-simulator accessor its tests read",
	"core/micro.(Segmentation).RingOf":              "micro-simulator accessor its tests read",
	"core/micro.(Segmentation).OpenSwitches":        "micro-simulator accessor its tests read",
	"core/micro.(Segmentation).WritebackOverlapped": "micro-simulator accessor its tests read",
}

// TestNoUnreferencedInternalExports fails when an internal package exports a
// function or method that no non-test Go file of either module names: a
// function must be selected through an import of its package or named inside
// its own package, a method must be selected by name somewhere. The check
// matches names only, so a method whose name another type's method shares
// passes; it exists to stop deleted dead code from coming back, not to find
// all of it. Allow-list entries the check would not flag fail too, so the
// list cannot go stale.
func TestNoUnreferencedInternalExports(t *testing.T) {
	type decl struct {
		pkg, recv, name string
		pos             token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{} // "graph.Decode": named through an import or in its own package
	selected := map[string]bool{} // every name that appears after a dot

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		own, internal := strings.CutPrefix(dir, "internal/")
		imports := map[string]string{} // local name → package key
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			key, ok := strings.CutPrefix(ip, "scale/internal/")
			if !ok {
				continue
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = key
		}
		var declared *ast.Ident // the name a FuncDecl declares is not a reference to it
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared = n.Name
				if internal && n.Name.IsExported() {
					decls = append(decls, decl{pkg: own, recv: recvName(n), name: n.Name.Name, pos: fset.Position(n.Pos())})
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if internal && n != declared {
					funcRefs[own+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	flagged := map[string]token.Position{}
	for _, d := range decls {
		if d.recv == "" && !funcRefs[d.pkg+"."+d.name] {
			flagged[d.pkg+"."+d.name] = d.pos
		}
		if d.recv != "" && !selected[d.name] {
			flagged[d.pkg+".("+d.recv+")."+d.name] = d.pos
		}
	}
	var names []string
	for name := range flagged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := unreferencedAllowed[name]; !ok {
			t.Errorf("%s: %s is exported but no non-test code names it; delete it, move it into the test that uses it, or allow-list it with a reason", flagged[name], name)
		}
	}
	for name, reason := range unreferencedAllowed {
		if _, ok := flagged[name]; !ok {
			t.Errorf("allow-list entry %s (%q) names no unreferenced declaration; remove it", name, reason)
		}
	}
}

// recvName returns the receiver's type name without pointer or type
// parameters, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
