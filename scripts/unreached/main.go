// Command unreached lists the production functions that no binary of this
// repository links.
//
// It builds every main package with inlining off (-gcflags=all=-l), so no
// function is inlined out of the symbol table, reads each binary's text
// symbols with `go tool nm`, and compares them with every function declared
// in a non-test, non-main Go file of the root module (init functions
// excluded). The bench module is built from its own directory and
// contributes binaries, not declarations. Mains under scripts/ are tools, not
// the running system, and are not built.
//
// Run from the repository root:
//
//	go run ./scripts/unreached          # print the unreached functions and their line counts
//	go run ./scripts/unreached -check   # compare them with testdata/unreached.txt
//
// testdata/unreached.txt holds one function per line, `symbol  # reason`,
// where the reason is "planned: item N", "hook: <packages>" or "decision:
// item N". -check fails when a function is unreached but not listed, when a
// listed function is reached or no longer declared, and when an entry has no
// such reason. So the list can only shrink, and it stays exact.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const listPath = "testdata/unreached.txt"

// A reason names the ROADMAP item that gives the function a caller or
// decides it, or the packages whose tests call it.
var reasonRE = regexp.MustCompile(`^((planned|decision): item \S|hook: \S)`)

func main() {
	check := flag.Bool("check", false, "fail unless the unreached functions are exactly those listed in "+listPath)
	flag.Parse()
	if err := run(*check); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run(check bool) error {
	decls, err := declarations()
	if err != nil {
		return err
	}
	syms, err := linkedSymbols()
	if err != nil {
		return err
	}
	unreached := unreachedOf(decls, syms)
	if !check {
		total := 0
		for _, d := range unreached {
			fmt.Printf("%4d  %s  (%s)\n", d.lines, d.name, d.pos)
			total += d.lines
		}
		fmt.Printf("%d functions, %d lines, linked by no binary\n", len(unreached), total)
		return nil
	}
	listed, err := readList(listPath)
	if err != nil {
		return err
	}
	if problems := compare(unreached, listed); len(problems) > 0 {
		return fmt.Errorf("%s is out of date:\n  %s", listPath, strings.Join(problems, "\n  "))
	}
	return nil
}

// A decl is one function declared in a production file.
type decl struct {
	name  string // as the linker names it: ros/internal/sim.(*Env).Run
	pos   string // file:line
	lines int
}

// declarations parses the non-test Go files of every non-main package of
// the root module, as `go list` selects them for this platform.
func declarations() ([]decl, error) {
	out, err := goCmd(".", "list", "-f", `{{if ne .Name "main"}}{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		pkg, pkgDir := f[0], f[1]
		for _, name := range f[2:] {
			path := filepath.Join(pkgDir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				rel, err := filepath.Rel(wd, start.Filename)
				if err != nil {
					rel = start.Filename
				}
				decls = append(decls, decl{
					name:  pkg + "." + receiver(fn) + fn.Name.Name,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	return decls, nil
}

// receiver renders a method's receiver the way the linker does, type
// parameters dropped: "(*T)." or "T.", and "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// modules are the directories of the repository's modules: the root and
// the out-of-tree bench, which has its own go.mod.
var modules = []string{".", "bench"}

// linkedSymbols builds every main package of each module, with inlining
// off, and returns the text symbols of all the binaries.
func linkedSymbols() ([]string, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var bins []string
	for i, dir := range modules {
		out, err := goCmd(dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
		if err != nil {
			return nil, err
		}
		var mains []string
		for _, p := range strings.Fields(out) {
			if !strings.Contains(p, "/scripts/") {
				mains = append(mains, p)
			}
		}
		if len(mains) == 0 {
			continue
		}
		// One output directory per module: two modules may both hold a
		// main of the same name.
		outDir := filepath.Join(tmp, fmt.Sprint(i))
		if err := os.Mkdir(outDir, 0o755); err != nil {
			return nil, err
		}
		args := append([]string{"build", "-gcflags=all=-l", "-o", outDir + string(filepath.Separator)}, mains...)
		if _, err := goCmd(dir, args...); err != nil {
			return nil, err
		}
		built, err := os.ReadDir(outDir)
		if err != nil {
			return nil, err
		}
		for _, b := range built {
			bins = append(bins, filepath.Join(outDir, b.Name()))
		}
	}
	var syms []string
	for _, bin := range bins {
		out, err := goCmd(".", "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(out, "\n") {
			// addr T name; the name may itself hold spaces (generic shapes).
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				syms = append(syms, f[2])
			}
		}
	}
	return syms, nil
}

// unreachedOf returns the declarations that no symbol reaches.
func unreachedOf(decls []decl, syms []string) []decl {
	reached := reachedNames(syms)
	var out []decl
	for _, d := range decls {
		if !reached[d.name] {
			out = append(out, d)
		}
	}
	return out
}

// reachedNames maps linked symbols to the declaration names they reach.
// Type arguments are dropped ("T[go.shape.int]" is T), a method-value
// wrapper (-fm) reaches its method, and a pointer-receiver symbol (*T).M
// also reaches a value method T.M: the linker may keep only the wrapper it
// generates for the method set of *T. A closure (F.func1) is not a
// declaration and reaches nothing by its own name.
func reachedNames(syms []string) map[string]bool {
	reached := make(map[string]bool)
	for _, s := range syms {
		n := strings.TrimSuffix(stripTypeArgs(s), "-fm")
		reached[n] = true
		if i := strings.Index(n, ".(*"); i >= 0 {
			if j := strings.Index(n[i:], ")."); j >= 0 {
				reached[n[:i+1]+n[i+3:i+j]+n[i+j+1:]] = true
			}
		}
	}
	return reached
}

// stripTypeArgs removes every balanced [...] group from a symbol. Generic
// shapes may nest brackets and hold spaces, as in
// (*Completion[go.shape.struct { Group int; Hit []bool }]).Wait.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readList parses testdata/unreached.txt into symbol → reason. Blank lines
// and lines starting with # are comments.
func readList(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]string)
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		if _, dup := listed[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n+1, sym)
		}
		listed[sym] = reason
	}
	return listed, nil
}

// compare returns one line per difference between the unreached functions
// and the list, sorted.
func compare(unreached []decl, listed map[string]string) []string {
	var problems []string
	seen := make(map[string]bool)
	for _, d := range unreached {
		seen[d.name] = true
		reason, ok := listed[d.name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s (%s, %d lines) is linked by no binary: give it a caller, delete it, move it into an export_test.go, or list it with a reason", d.name, d.pos, d.lines))
		case !reasonRE.MatchString(reason):
			problems = append(problems, fmt.Sprintf("%s: reason %q is not \"planned: item N\", \"hook: <packages>\" or \"decision: item N\"", d.name, reason))
		}
	}
	for sym := range listed {
		if !seen[sym] {
			problems = append(problems, sym+" is listed but is now reached or no longer declared: remove its line")
		}
	}
	sort.Strings(problems)
	return problems
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return string(out), nil
}
