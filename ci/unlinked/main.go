// Command unlinked lists the functions declared in the non-test files of the
// given directories that no linked binary contains. It reads `go tool nm`
// output on stdin and prints one line per unlinked function (its position,
// its line count with the doc comment, and its symbol), then the totals.
// ci/unlinked.sh builds the binaries and feeds it their symbols.
//
//	go tool nm bin/* | go run ./ci/unlinked -module deep internal
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// typeArgs matches the instantiation nm prints after a generic name, so
// slab.(*Slab[go.shape.int]).Get reads as slab.(*Slab).Get.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

func main() {
	module := flag.String("module", "deep", "module path the directories sit under")
	flag.Parse()
	linked := map[string]bool{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(nil, 1<<20)
	for in.Scan() {
		if f := strings.Fields(in.Text()); len(f) >= 3 && strings.EqualFold(f[1], "T") {
			name := f[2]
			for prev := ""; prev != name; { // nested instantiations peel one level at a time
				prev, name = name, typeArgs.ReplaceAllString(name, "")
			}
			linked[name] = true
		}
	}
	fset := token.NewFileSet()
	n, lines := 0, 0
	for _, root := range flag.Args() {
		// WalkDir visits files in lexical order, so the list comes out sorted.
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			pkg := *module + "/" + filepath.ToSlash(filepath.Dir(path))
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" {
					continue
				}
				sym := pkg + "." + recv(fn) + fn.Name.Name
				if linked[sym] {
					continue
				}
				start := fn.Pos()
				if fn.Doc != nil {
					start = fn.Doc.Pos()
				}
				size := fset.Position(fn.End()).Line - fset.Position(start).Line + 1
				fmt.Printf("%-36s %4d  %s\n", fset.Position(fn.Pos()), size, sym)
				n, lines = n+1, lines+size
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "unlinked:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%d unlinked functions, %d lines\n", n, lines)
}

// recv renders a method's receiver the way the linker names it, "T." or
// "(*T).", with type parameters left out; "" for a function.
func recv(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	t, ptr := fn.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if ptr {
		return "(*" + t.(*ast.Ident).Name + ")."
	}
	return t.(*ast.Ident).Name + "."
}
