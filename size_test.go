package socksdirect_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The size ledger: SIZE.json holds the line count (`wc -l`) of every Go
// package directory, non-test and test files apart, and of the documents
// whose length the roadmap tracks. TestSizeFile recounts and fails on any
// row that differs, so a change's diff of SIZE.json is its line delta per
// package. -update-size rewrites the file from the tree.
var updateSize = flag.Bool("update-size", false, "rewrite "+sizeFile+" from the tree")

const sizeFile = "SIZE.json"

// sizeDocs are the non-Go files whose length SIZE.json tracks.
var sizeDocs = []string{
	"ARCHITECTURE.md",
	"EXPERIMENTS.md",
	".github/workflows/ci.yml",
	".claude/skills/verify/SKILL.md",
}

// goSize is one package directory's row: non-test and test lines.
type goSize struct {
	Code int `json:"code"`
	Test int `json:"test"`
}

type sizeLedger struct {
	Go   map[string]goSize `json:"go"`
	Docs map[string]int    `json:"docs"`
}

// countSize walks the tree the way `wc -l` over the tracked files counts it:
// every .go file outside hidden directories and testdata.
func countSize(t *testing.T) sizeLedger {
	t.Helper()
	got := sizeLedger{Go: map[string]goSize{}, Docs: map[string]int{}}
	var total goSize
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		n := countLines(t, path)
		dir := filepath.ToSlash(filepath.Dir(path))
		row := got.Go[dir]
		if strings.HasSuffix(path, "_test.go") {
			row.Test += n
			total.Test += n
		} else {
			row.Code += n
			total.Code += n
		}
		got.Go[dir] = row
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got.Go["total"] = total
	for _, doc := range sizeDocs {
		got.Docs[doc] = countLines(t, doc)
	}
	return got
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}

// encode writes one row per line, keys sorted, so a diff names the rows
// that moved.
func (s sizeLedger) encode() []byte {
	var b bytes.Buffer
	b.WriteString("{\n  \"go\": {\n")
	dirs := slices.Sorted(maps.Keys(s.Go))
	for i, dir := range dirs {
		r := s.Go[dir]
		fmt.Fprintf(&b, "    %q: {\"code\": %d, \"test\": %d}%s\n", dir, r.Code, r.Test, comma(i, len(dirs)))
	}
	b.WriteString("  },\n  \"docs\": {\n")
	docs := slices.Sorted(maps.Keys(s.Docs))
	for i, doc := range docs {
		fmt.Fprintf(&b, "    %q: %d%s\n", doc, s.Docs[doc], comma(i, len(docs)))
	}
	b.WriteString("  }\n}\n")
	return b.Bytes()
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

func TestSizeFile(t *testing.T) {
	got := countSize(t)
	if *updateSize {
		if err := os.WriteFile(sizeFile, got.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want sizeLedger
	readJSON(t, sizeFile, &want)
	for dir, w := range want.Go {
		if g, ok := got.Go[dir]; !ok {
			t.Errorf("%s: in %s, not in the tree", dir, sizeFile)
		} else if g != w {
			t.Errorf("%s = %+v, %s has %+v", dir, g, sizeFile, w)
		}
	}
	for dir := range got.Go {
		if _, ok := want.Go[dir]; !ok {
			t.Errorf("%s: in the tree, not in %s", dir, sizeFile)
		}
	}
	for doc, w := range want.Docs {
		if g, ok := got.Docs[doc]; !ok {
			t.Errorf("%s: in %s, not counted", doc, sizeFile)
		} else if g != w {
			t.Errorf("%s = %d lines, %s has %d", doc, g, sizeFile, w)
		}
	}
	for doc := range got.Docs {
		if _, ok := want.Docs[doc]; !ok {
			t.Errorf("%s: counted, not in %s", doc, sizeFile)
		}
	}
	if t.Failed() {
		t.Logf("a change that means to move these rows rewrites the file: go test -run TestSizeFile -update-size .")
	}
}
