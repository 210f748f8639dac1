// Package wireready enforces the marshal-boundary invariant from the
// engine hot path (DESIGN.md §7): a transport Message carries
// in-process-only fields (BindingsVal, TriggerEvent) that must be
// folded into their literal form via Message.WireReady before the
// message is marshalled as JSON — which, since the TCP hop moved to a
// binary codec that encodes those fields itself, happens only in the
// durable reliable journal.  Marshaling an unmaterialized Message
// silently drops bound values on crash replay.
//
// The check is per function: any json.Marshal/MarshalIndent or
// encoder.Encode call whose argument is (or syntactically contains) a
// value of declared type Message/[]Message/*Message must be preceded in
// the same function by a WireReady call, or carry an allow annotation
// naming the caller that materializes.  Declared types are resolved
// from parameters, receivers, var declarations and short assignments in
// the same function — no type checker, by design; the Message type is
// only matched in package transport itself or under the qualified name
// transport.Message elsewhere.
package wireready

import (
	"go/ast"
	"go/token"
	"strings"

	"cmtk/internal/analysis"
)

// Analyzer is the wireready checker.
var Analyzer = &analysis.Analyzer{
	Name: "wireready",
	Doc:  "transport Messages must be WireReady-materialized before any marshal or journal boundary",
	Run:  run,
}

func run(p *analysis.Pass) error {
	for _, file := range p.Pkg.Files {
		jsonName := analysis.ImportName(file, "encoding/json")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(p, file, fd, jsonName)
		}
	}
	return nil
}

// typeString renders a type expression to a compact string:
// []Message → "[]Message", *transport.Message → "*transport.Message".
func typeString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return typeString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + typeString(x.X)
	case *ast.ArrayType:
		return "[]" + typeString(x.Elt)
	case *ast.MapType:
		return "map[" + typeString(x.Key) + "]" + typeString(x.Value)
	}
	return ""
}

// isMessageType reports whether a rendered type names the transport
// message: bare Message inside package transport, transport.Message
// anywhere.
func isMessageType(pkgName, t string) bool {
	t = strings.TrimLeft(t, "*[]")
	if t == "transport.Message" {
		return true
	}
	return pkgName == "transport" && t == "Message"
}

func checkFunc(p *analysis.Pass, file *ast.File, fd *ast.FuncDecl, jsonName string) {
	// Phase 1: map identifier → declared type string from the signature
	// and the body's explicit declarations, and propagate through simple
	// copies (wm := m).
	types := map[string]string{}
	bind := func(names []*ast.Ident, t string) {
		for _, n := range names {
			if n.Name != "_" {
				types[n.Name] = t
			}
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			bind(f.Names, typeString(f.Type))
		}
	}
	for _, f := range fd.Type.Params.List {
		bind(f.Names, typeString(f.Type))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil {
						bind(vs.Names, typeString(vs.Type))
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := x.Rhs[i].(type) {
				case *ast.CompositeLit:
					if t := typeString(rhs.Type); t != "" {
						types[id.Name] = t
					}
				case *ast.UnaryExpr:
					if cl, ok := rhs.X.(*ast.CompositeLit); ok && rhs.Op == token.AND {
						if t := typeString(cl.Type); t != "" {
							types[id.Name] = "*" + t
						}
					}
				case *ast.Ident:
					if t, ok := types[rhs.Name]; ok {
						types[id.Name] = t
					}
				}
			}
		}
		return true
	})

	// Phase 2: find the first WireReady call position, then check each
	// marshal site against it.
	firstReady := token.Pos(-1)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WireReady" {
				if firstReady < 0 || call.Pos() < firstReady {
					firstReady = call.Pos()
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		isMarshal := false
		if root, ok := sel.X.(*ast.Ident); ok && jsonName != "" && root.Name == jsonName &&
			(sel.Sel.Name == "Marshal" || sel.Sel.Name == "MarshalIndent") {
			isMarshal = true
		}
		if sel.Sel.Name == "Encode" {
			isMarshal = true
		}
		if !isMarshal {
			return true
		}
		for _, name := range messageRoots(p.Pkg.Name, call.Args[0], types) {
			if firstReady >= 0 && firstReady < call.Pos() {
				continue // materialized earlier in this function
			}
			p.Reportf(call.Pos(), "%s of %s (type %s) without a prior WireReady call in this function; in-process fields (BindingsVal, TriggerEvent) would not survive the wire or a crash replay",
				sel.Sel.Name, name, types[name])
		}
		return true
	})
}

// messageRoots returns identifiers inside arg whose declared type is the
// transport message: the argument's own root (unwrapping indexes,
// derefs, parens, slices) and, for composite literals, each field
// value's root.
func messageRoots(pkgName string, arg ast.Expr, types map[string]string) []string {
	var out []string
	add := func(e ast.Expr) {
		root := analysis.SelectorPath(e)
		if i := strings.Index(root, "."); i > 0 {
			root = root[:i]
		}
		if root == "" {
			return
		}
		if t, ok := types[root]; ok && isMessageType(pkgName, t) {
			out = append(out, root)
		}
	}
	if cl, ok := arg.(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				add(kv.Value)
			} else {
				add(elt)
			}
		}
		return out
	}
	add(arg)
	return out
}
