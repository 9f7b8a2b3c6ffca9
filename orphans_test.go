package chiaroscuro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the exported internal/ declarations that no
// non-test file reaches but that stay on purpose, each with its reason.
// A key is the declaring directory, a dot, and the symbol (Recv.Method
// for a method); a directory alone covers its whole package.
var orphanAllowlist = map[string]string{
	"internal/compactrng.Source.Int63":                  "implements rand.Source, called through that interface",
	"internal/crypto/damgardjurik.GenerateKey":          "fresh-prime key generation, needed by the daemon's planned set-up step",
	"internal/crypto/damgardjurik.GenerateThresholdKey": "fresh-prime threshold keys, needed by the daemon's planned set-up step",
	"internal/crypto/dkg.RunReshareCeremony":            "resharing is parked, not abandoned",
	"internal/dp.Laplace":                               "the reference distribution of the noise-share tests",
	"internal/gossip.State.Emit":                        "the allocating push-sum step the in-place one is tested against",
	"internal/gossip.State.Values":                      "the copying read the gossip tests compare estimates with",
	"internal/transport/conformance":                    "a test-support package: its harness is driven only from tests",
}

// TestNoOrphanedInternalSymbols enforces that a symbol under internal/
// which only its own tests call is deleted: every exported declaration
// there must be named by some non-test file other than at its
// declaration, or be listed in orphanAllowlist. bench/, cmd/, examples/
// and the root package count as callers. A use is matched by name —
// a bare identifier inside the declaring package, a qualified one
// (pkg.Name) elsewhere, any selector for a method — so the check is
// conservative: a same-named method elsewhere keeps a method alive.
// Stale allowlist entries (gone, or now called) fail the test too.
func TestNoOrphanedInternalSymbols(t *testing.T) {
	type decl struct{ dir, name, recv string }
	type file struct {
		dir     string
		ast     *ast.File
		imports map[string]string // local name → declaring directory
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			rel, ok := strings.CutPrefix(p, "chiaroscuro/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(path)), ast: f, imports: imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []decl
	declared := map[token.Pos]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, recv string) {
			if id.IsExported() {
				decls = append(decls, decl{dir: f.dir, name: id.Name, recv: recv})
				declared[id.Pos()] = true
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "")
						}
					}
				}
			}
		}
	}

	// Index every use: bare names per directory, qualified names per
	// declaring directory, and selector names (method candidates).
	bare := map[string]map[string]bool{}      // dir → name
	qualified := map[string]map[string]bool{} // declaring dir → name
	selected := map[string]bool{}
	mark := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := f.imports[x.Name]; ok {
						mark(qualified, dir, n.Sel.Name)
					}
				}
			case *ast.Ident:
				if !declared[n.Pos()] {
					mark(bare, f.dir, n.Name)
				}
			}
			return true
		})
	}

	orphans := map[string]bool{}
	for _, d := range decls {
		used := false
		if d.recv != "" {
			used = selected[d.name] || bare[d.dir][d.name]
		} else {
			used = bare[d.dir][d.name] || qualified[d.dir][d.name]
		}
		if used {
			continue
		}
		sym := d.name
		if d.recv != "" {
			sym = d.recv + "." + d.name
		}
		orphans[d.dir+"."+sym] = true
	}

	covered := map[string]bool{}
	var unlisted []string
	for o := range orphans {
		if _, ok := orphanAllowlist[o]; ok {
			covered[o] = true
			continue
		}
		if pkg := packageEntry(o); pkg != "" {
			if _, ok := orphanAllowlist[pkg]; ok {
				covered[pkg] = true
				continue
			}
		}
		unlisted = append(unlisted, o)
	}
	sort.Strings(unlisted)
	for _, o := range unlisted {
		t.Errorf("%s: exported under internal/ but named by no non-test file; delete it or list it in orphanAllowlist with a reason", o)
	}
	var stale []string
	for k := range orphanAllowlist {
		if !covered[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("orphanAllowlist entry %s is stale: the symbol is gone or now has a non-test caller", k)
	}
}

// packageEntry returns the directory part of an orphan key
// ("internal/p2p.Context.RandomPeers" → "internal/p2p").
func packageEntry(key string) string {
	slash := strings.LastIndexByte(key, '/')
	dot := strings.IndexByte(key[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return key[:slash+1+dot]
}

// receiverName returns the type name of a method receiver, without
// pointer or type parameters.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
