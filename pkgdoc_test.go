package socksdirect_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsDocumented walks internal/ and fails if any
// package lacks a package doc comment. The doc comments double as the
// paper map (each cites the §4.x it implements — see ARCHITECTURE.md),
// so an undocumented package is a docs regression, and CI treats it as
// one.
func TestEveryInternalPackageIsDocumented(t *testing.T) {
	pkgFiles := map[string][]string{} // package dir -> non-test .go files
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgFiles[dir] = append(pkgFiles[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgFiles) == 0 {
		t.Fatal("no packages found under internal/")
	}
	// The control plane is where the repo diverges furthest from what a
	// reader can infer from the paper alone (sharded dispatch, epochs,
	// wire-format affinity), so these packages must not just carry a doc
	// comment — the comment must cite the paper sections it reinterprets.
	citeRequired := map[string]bool{
		filepath.Join("internal", "ctlmsg"):           true,
		filepath.Join("internal", "monitor"):          true,
		filepath.Join("internal", "monitor", "shard"): true,
	}
	fset := token.NewFileSet()
	for dir, files := range pkgFiles {
		doc := ""
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				doc = f.Doc.Text()
				break
			}
		}
		if doc == "" {
			t.Errorf("package %s has no package doc comment (add one citing the paper section it implements)", dir)
			continue
		}
		if citeRequired[dir] && !strings.Contains(doc, "§") {
			t.Errorf("package %s is a control-plane package but its doc comment cites no paper section (§)", dir)
		}
	}
}

// TestCoreBlocksOnlyInWait keeps libsd at one way to block (ARCHITECTURE.md
// "Blocking"): in non-test internal/core, what gives up the core or arms a
// timer — Park, Sleep, Spin, Yield, a WaitQ's Wait, After — is called from
// wait.go, or from a function listed here with the reason it is not a wait.
// A new blocking loop uses wait.block or argues its way onto the list.
func TestCoreBlocksOnlyInWait(t *testing.T) {
	allowed := map[string]string{
		"epoll.go startEpollThread Park":  "libsd's own kernel-event thread idles while nobody is in Epoll.Wait",
		"epoll.go startEpollThread Sleep": "the same thread's 50 µs epoll_wait sweep period",
		"libsd.go sendCtl Yield":          "a full control ring, which the monitor drains; not a wait for a peer",
		"tcpep.go sendHello Yield":        "the rescue connection's handshake write into a kernel socket buffer",
		"libsd.go armAutoPump After":      "re-arms the CQ pump from timer context; no thread waits",
		"recover.go markFailed After":     "the wake-up of a parked receiver, process-wakeup latency later",
	}
	blocking := map[string]bool{"Park": true, "Sleep": true, "Spin": true, "Yield": true, "Wait": true, "After": true}
	paths, err := filepath.Glob(filepath.Join("internal", "core", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no files in internal/core: %v", err)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		name := filepath.Base(path)
		if name == "wait.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && blocking[sel.Sel.Name] {
					key := name + " " + fn.Name.Name + " " + sel.Sel.Name
					if used[key] = true; allowed[key] == "" {
						t.Errorf("%s: %s calls %s outside wait.go: use wait.block, or list it here with its reason", name, fn.Name.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("allowlist entry %q matches nothing any more: delete it", key)
		}
	}
}
