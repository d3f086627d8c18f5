package socksdirect_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestMonitorNeverSpins keeps the monitor's loops parked (ARCHITECTURE.md
// "Sharded control plane"): the router and the shard loops park after a
// pass that found no work, and whatever queues work for them rings their
// doorbell. Non-test internal/monitor calls no Spin, and no Yield: a loop
// that yields until a process drains its ring waits on that process, and
// stalls its shard for every other (a full ring queues, sendTo).
func TestMonitorNeverSpins(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("internal", "monitor"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Spin" || sel.Sel.Name == "Yield") {
					t.Errorf("%s: a monitor loop calls %s: park it, and ring it where its work is queued", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// simPackages are the packages a simulated world is made of.
var simPackages = []string{"core", "monitor", "host", "tcpstack", "rdma", "mem", "fabric", "shm", "fault"}

// TestSimStateTakesNoLocks keeps a Sim's state lock-free (ARCHITECTURE.md
// "A Sim owns its state"): the packages a simulated world is made of are
// touched only from inside Sim.Run, one thread at a time, so their non-test
// code declares no sync.Mutex, RWMutex, Once or Cond and calls no Lock or
// TryLock. What is shared across Sims lives elsewhere; a file here that
// must synchronise argues its way onto the list with its reason.
func TestSimStateTakesNoLocks(t *testing.T) {
	allowed := map[string]string{
		"shm/locked.go": "LockedRing is the mutex-guarded queue of Table 2, the baseline the lockless ring is measured against",
	}
	syncTypes := map[string]bool{"Mutex": true, "RWMutex": true, "Once": true, "OnceFunc": true,
		"OnceValue": true, "OnceValues": true, "Cond": true}
	locking := map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range simPackages {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files in internal/%s: %v", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			key := pkg + "/" + filepath.Base(path)
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				var what string
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && syncTypes[n.Sel.Name] {
						what = "sync." + n.Sel.Name
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && locking[sel.Sel.Name] && len(n.Args) == 0 {
						what = "a " + sel.Sel.Name + " call"
					}
				}
				if what == "" {
					return true
				}
				if used[key] = true; allowed[key] == "" {
					t.Errorf("%s: %s uses %s: a Sim's state is touched only from inside Run and takes no lock", key, fset.Position(n.Pos()), what)
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

// TestSimStateHasNoGlobals keeps a world's numbers, limits and recycled
// objects in the world (ARCHITECTURE.md "A Sim owns its state"): no
// package-level variable of the packages a simulated world is made of
// mentions sync/atomic, a sync.Pool or a bufpool.FreeList. Such a variable
// is state two Sims share: a counter that numbers hosts per process, a cap
// one drill sets for every cluster, or a pool whose reuse order depends on
// the other world and on the GC. It belongs on the Sim, the Host or a
// per-world object such as a NIC; metric handles synchronise inside
// telemetry.
func TestSimStateHasNoGlobals(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range simPackages {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files in internal/%s: %v", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					if what := sharedIn(spec); what != "" {
						var names []string
						for _, n := range spec.(*ast.ValueSpec).Names {
							names = append(names, n.Name)
						}
						t.Errorf("%s: package-level %s mentions %s: a Sim's state lives on the Sim, the Host or another object of one world",
							fset.Position(spec.Pos()), strings.Join(names, ", "), what)
					}
				}
			}
		}
	}
}

// sharedIn names the first atomic.X, sync.Pool or bufpool.FreeList that n
// mentions, or returns "".
func sharedIn(n ast.Node) (what string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && what == "" {
			if x, ok := sel.X.(*ast.Ident); ok {
				switch name := x.Name + "." + sel.Sel.Name; {
				case x.Name == "atomic", name == "sync.Pool", name == "bufpool.FreeList":
					what = name
				}
			}
		}
		return what == ""
	})
	return what
}

// TestOnlySharedWordsAreAtomic keeps sync/atomic to the words another
// process or a NIC writes (ARCHITECTURE.md "A Sim owns its state"): a Sim
// runs one thread at a time, so the packages a world is made of mention
// atomic.X, in non-test code, only where an entry below says why. An entry
// is a file, "file Type" for the field declarations of a struct type, or
// "file Type.field" for one field; the code those words name is exactly
// what a hostile peer can scribble on (§3).
func TestOnlySharedWordsAreAtomic(t *testing.T) {
	allowed := map[string]string{
		"shm/ring.go":             "the ring's tail and credit words, and the backing the receiver loads (base, ext), are written by the peer process or its NIC; TestRingConcurrentStress runs a ring across two goroutines",
		"core/state.go SideState": "a socket side lives in a SHM segment that the peer's and forked processes' libsd write: token holders, return requests, busy marks, the sleeper, the peer PID, references, facts, the RDMA cursors",
		"core/state.go ProcLink":  "the §4.4 interrupt words and the full-ring marks, in memory that the monitor and the process both write",
		"core/libsd.go Libsd.monEpoch": "Socket.Probe reads it for the flow table, and obs.Trigger -> Capture -> obs.Flows() can run that probe " +
			"from another world's goroutine while this one runs; ROADMAP item 3 moves the flow table into the world",
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range simPackages {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files in internal/%s: %v", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			key := pkg + "/" + filepath.Base(path)
			// check reports an atomic.X under n unless the most specific of
			// keys that the allowlist has says why.
			checked := map[ast.Node]bool{}
			check := func(n ast.Node, keys ...string) {
				ast.Inspect(n, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || checked[sel] {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "atomic" {
						return true
					}
					checked[sel] = true
					for _, k := range keys {
						if allowed[k] != "" {
							used[k] = true
							return true
						}
					}
					t.Errorf("%s: %s: atomic.%s on a word only this world writes: make it a plain field, or list it with the writer that shares it",
						keys[0], fset.Position(sel.Pos()), sel.Sel.Name)
					return true
				})
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							typ := key + " " + ts.Name.Name
							check(f.Type, typ+"."+name.Name, typ, key)
						}
					}
				}
			}
			check(file, key)
		}
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("allowlist entry %q matches nothing any more: delete it", key)
		}
	}
}

// TestOneCensus keeps "zero resource drift" stated once (ARCHITECTURE.md
// "One census"): no Go file but the census's home declares a struct type
// or a function, other than a test, whose name says census. A second count
// drifts from the first in what it counts, as the four the census replaced
// did.
func TestOneCensus(t *testing.T) {
	home := filepath.Join("internal", "monitor", "census.go")
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go") || path == home:
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			var name *ast.Ident
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !strings.HasPrefix(d.Name.Name, "Test") {
					name = d.Name
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if _, ok := ts.Type.(*ast.StructType); ok && strings.Contains(strings.ToLower(ts.Name.Name), "census") {
							t.Errorf("%s: struct type %s: the census is monitor.Census", fset.Position(ts.Pos()), ts.Name.Name)
						}
					}
				}
			}
			if name != nil && strings.Contains(strings.ToLower(name.Name), "census") {
				t.Errorf("%s: func %s: the census is monitor.TakeCensus", fset.Position(name.Pos()), name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCodeCitesOnlyOpenItems fails on a ROADMAP item that Go code, a
// current-state document or the CI workflow cites — "ROADMAP n", "ROADMAP n(x)",
// "item n" — and that ROADMAP.md does not list under "Open items": items
// are renumbered and finished, and a citation of one points nowhere. Cite
// the ARCHITECTURE.md or EXPERIMENTS.md section instead.
func TestCodeCitesOnlyOpenItems(t *testing.T) {
	src, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, open, ok := strings.Cut(string(src), "\n## Open items\n")
	if !ok {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	open, _, _ = strings.Cut(open, "\n## ")
	number := regexp.MustCompile(`^(\d+)\. `)             // "1. **One re-baseline …"
	letter := regexp.MustCompile(`^\s+- \*\*\(([a-z])\)`) // "   - **(a) Host ordinals …"
	items := map[string]bool{}                            // "n" and "n(x)"
	item := ""
	for _, line := range strings.Split(open, "\n") {
		if m := number.FindStringSubmatch(line); m != nil {
			item = m[1]
			items[item] = true
		} else if m := letter.FindStringSubmatch(line); m != nil {
			items[item+"("+m[1]+")"] = true
		}
	}
	// Besides Go code: the documents that describe the current state, and
	// CI. Not checked: ROADMAP.md, which also names finished items;
	// CHANGES.md, which cites items as they were numbered then; and
	// benchmark/README.md, whose stale citation goes with the benchmark
	// harness it describes (ROADMAP item 6).
	docs := []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md",
		filepath.Join(".github", "workflows", "ci.yml")}
	cite := regexp.MustCompile(`(?:ROADMAP\s+(?:item\s+)?|\bitem\s+)(\d+(?:\([a-z]\))?)`)
	check := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range cite.FindAllStringSubmatch(line, -1) {
				if !items[m[1]] {
					t.Errorf("%s:%d cites ROADMAP %s, which is not an open item", path, i+1, m[1])
				}
			}
		}
		return nil
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .github
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		return check(path)
	})
	for _, doc := range docs {
		if err == nil {
			err = check(doc)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCIRunPatternsMatchTests fails on an alternative of a `go test -run`
// pattern in the CI workflow that matches no Test, Fuzz or Benchmark
// function in the repository: a renamed test would otherwise drop out of
// its CI step without a word. Only the top level of a pattern (before its
// first '/') is checked; subtests are not.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .github, build output
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	patterns := 0
	for i, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		for _, m := range run.FindAllStringSubmatch(line, -1) {
			patterns++
			for _, alt := range topLevelAlternatives(m[1] + m[2] + m[3]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
					continue
				}
				found := false
				for _, name := range names {
					if found = re.MatchString(name); found {
						break
					}
				}
				if !found {
					t.Errorf("ci.yml:%d: -run alternative %q matches no Test, Fuzz or Benchmark function", i+1, alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no go test -run pattern in ci.yml")
	}
}

// topLevelAlternatives splits the first level of a go test -run pattern
// (up to its first '/' outside parentheses) at the '|' outside parentheses.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && c == '/':
			return append(alts, pattern[start:i])
		case depth == 0 && c == '|':
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// currentDocs are the documents that describe the repository as it is.
// ROADMAP.md and CHANGES.md are plans and history, and may name what no
// longer exists.
var currentDocs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md",
	filepath.Join("benchmark", "README.md")}

// TestDocLinksResolve fails on a relative Markdown link in a current
// document whose target file does not exist.
func TestDocLinksResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range currentDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllStringSubmatch(string(src), -1) {
			target := m[1]
			if strings.HasPrefix(target, "#") || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path := filepath.Join(filepath.Dir(doc), strings.SplitN(target, "#", 2)[0])
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s links %q, which does not exist", doc, target)
			}
		}
	}
}

// TestDocsNameOnlySdbenchCommands fails on a `sdbench <cmd>` in a current
// document's code (inline spans and fenced blocks) that cmd/sdbench does
// not dispatch, through its command map or its switch, and on a command it
// dispatches that no current document names that way. Flags before the
// command are skipped; -trace takes a value.
func TestDocsNameOnlySdbenchCommands(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("cmd", "sdbench", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if lit, ok := n.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if _, isFunc := n.Value.(*ast.Ident); isFunc {
					cmds[strings.Trim(lit.Value, `"`)] = true
				}
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					cmds[strings.Trim(lit.Value, `"`)] = true
				}
			}
		}
		return true
	})
	if !cmds["all"] || !cmds["table2"] {
		t.Fatalf("found no sdbench dispatch in cmd/sdbench/main.go (got %v)", cmds)
	}
	documented := map[string]bool{}
	span := regexp.MustCompile("`[^`\n]+`")
	invocation := regexp.MustCompile(`(?:^|\s)(?:go run \./cmd/)?sdbench((?:\s+\S+)+)`)
	for _, doc := range currentDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var code []string
		fenced := false
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				code = append(code, line)
				continue
			}
			for _, s := range span.FindAllString(line, -1) {
				code = append(code, strings.Trim(s, "`"))
			}
		}
		for _, c := range code {
			for _, m := range invocation.FindAllStringSubmatch(c, -1) {
				words := strings.Fields(m[1])
				for len(words) > 0 && strings.HasPrefix(words[0], "-") {
					if words[0] == "-trace" && len(words) > 1 {
						words = words[1:]
					}
					words = words[1:]
				}
				if len(words) == 0 || words[0][0] < 'a' || words[0][0] > 'z' {
					continue // `sdbench <cmd>`, `sdbench [-json]`: a placeholder
				}
				for _, cmd := range strings.Split(strings.TrimRight(words[0], ".,;:)"), "|") {
					documented[cmd] = true
					if !cmds[cmd] {
						t.Errorf("%s names `sdbench %s`, which cmd/sdbench does not dispatch", doc, cmd)
					}
				}
			}
		}
	}
	for cmd := range cmds {
		if !documented[cmd] {
			t.Errorf("cmd/sdbench dispatches %q, but no current document names `sdbench %s`", cmd, cmd)
		}
	}
}

// TestLifecycleTableMatchesCode keeps ARCHITECTURE.md's table of a socket
// side's facts ("Connection lifecycle") equal to internal/core/state.go:
// every `fact` constant has one row, and the row's "needs" column names
// exactly what fact.needs returns for it.
func TestLifecycleTableMatchesCode(t *testing.T) {
	tableMatchesCode(t, filepath.Join("internal", "core", "state.go"), "fact", "needs",
		"| fact | reached by | needs |")
}

// TestRecordPhaseTableMatchesCode keeps ARCHITECTURE.md's table of a
// monitor record's phases ("Monitor records") equal to
// internal/monitor/shards.go: every `phase` constant has one row, and the
// row's "next" column names exactly the phases phaseNext allows.
func TestRecordPhaseTableMatchesCode(t *testing.T) {
	tableMatchesCode(t, filepath.Join("internal", "monitor", "shards.go"), "phase", "phaseNext",
		"| phase | reached by | next |")
}

// TestInterfacesHaveAReason keeps the Go guide's rule for interfaces: each
// interface type declared in non-test code under internal/ and the root has
// several implementations, would otherwise make its package import its
// implementer, or is what a test substitutes a fake for. The list names
// each one once with its reason; an interface with one implementation and
// none of these reasons is a seam to delete, and a new interface argues its
// way onto the list.
func TestInterfacesHaveAReason(t *testing.T) {
	const (
		several = "several implementations"
		cycle   = "would import its implementer"
		fake    = "a test substitutes a fake"
	)
	reasons := map[string]string{
		"internal/exec.Idler":        several, // the poll loops' predicates in core and monitor
		"internal/shm.CreditHook":    cycle,   // core.SideState
		"internal/fabric.Releasable": cycle,   // rdma's pooled packets
		"internal/obs.Prober":        cycle,   // core.Socket
		"internal/host.KFile":        several, // pipe ends, Unix sockets, kernel TCP sockets
		"internal/core.endpoint":     several, // shmEP, rdmaEP, closedEP
		"internal/core.burster":      several, // shmEP, rdmaEP
		"internal/core.sleeper":      several, // recvWaiter, acceptWaiter
		"internal/core.registrar":    cycle,   // monitor.Monitor
		"internal/core.connNoter":    cycle,   // monitor.Monitor
	}
	for name, why := range reasons {
		if why != several && why != cycle && why != fake {
			t.Errorf("%s: %q is not one of the three reasons", name, why)
		}
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, ok := spec.Type.(*ast.InterfaceType); ok {
				name := filepath.ToSlash(filepath.Dir(path)) + "." + spec.Name.Name
				declared[name] = true
				if reasons[name] == "" {
					t.Errorf("%s: interface %s has no reason listed: give it a second implementation, or make it concrete",
						fset.Position(spec.Pos()), spec.Name.Name)
				}
			}
			return true
		})
	}
	for name := range reasons {
		if !declared[name] {
			t.Errorf("the list names %s, which no non-test code declares any more: delete the entry", name)
		}
	}
}

// tableMatchesCode checks the ARCHITECTURE.md table under header against
// the constants of type typ in file and the table fn over them — a method
// switching on the constant, or an array keyed by it: one row per
// constant, whose last column quotes exactly the identifiers in fn's
// return or element for that constant (none for a constant fn skips).
func tableMatchesCode(t *testing.T, file, typ, fn, header string) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	code := map[string][]string{} // constant -> the identifiers fn gives for it, sorted
	found := false
	entry := func(key, value ast.Expr) {
		var ids []string
		ast.Inspect(value, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				ids = append(ids, id.Name)
			}
			return true
		})
		if id, ok := key.(*ast.Ident); ok {
			code[id.Name] = slices.Sorted(slices.Values(ids))
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, s := range d.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if d.Tok == token.VAR && len(vs.Names) == 1 && vs.Names[0].Name == fn && len(vs.Values) == 1 {
					if lit, ok := vs.Values[0].(*ast.CompositeLit); ok {
						found = true
						for _, e := range lit.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								entry(kv.Key, kv.Value)
							}
						}
					}
				}
			}
			if d.Tok != token.CONST || len(d.Specs) == 0 {
				continue
			}
			if id, ok := d.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != typ {
				continue
			}
			for _, s := range d.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					names = append(names, n.Name)
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != fn || d.Recv == nil {
				continue
			}
			found = true
			ast.Inspect(d.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok || len(cc.Body) != 1 {
					return true
				}
				ret, ok := cc.Body[0].(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				for _, e := range cc.List {
					entry(e, ret.Results[0])
				}
				return false
			})
		}
	}
	if len(names) == 0 || !found {
		t.Fatalf("%s declares no %s constants, or no %s over them", file, typ, fn)
	}

	raw, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	start := slices.Index(lines, header)
	if start < 0 {
		t.Fatalf("ARCHITECTURE.md has no %q table", header)
	}
	quoted := regexp.MustCompile("`(\\w+)`")
	doc := map[string][]string{}
	for _, line := range lines[start+2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			t.Fatalf("%s table row %q has %d cells, want 3", typ, line, len(cells))
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if _, dup := doc[name]; dup {
			t.Errorf("%s table lists %s twice", typ, name)
		}
		var ids []string
		for _, m := range quoted.FindAllStringSubmatch(cells[2], -1) {
			ids = append(ids, m[1])
		}
		doc[name] = slices.Sorted(slices.Values(ids))
	}
	for _, name := range names {
		got, ok := doc[name]
		switch {
		case !ok:
			t.Errorf("%s %s (%s) has no row in ARCHITECTURE.md's %s table", typ, name, file, typ)
		case !slices.Equal(got, code[name]):
			t.Errorf("%s %s: %s returns %v in %s, but ARCHITECTURE.md says %v", typ, name, fn, code[name], file, got)
		}
	}
	for name := range doc {
		if !slices.Contains(names, name) {
			t.Errorf("ARCHITECTURE.md's %s table lists %s, which %s does not declare", typ, name, file)
		}
	}
}
