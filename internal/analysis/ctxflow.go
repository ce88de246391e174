package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow enforces the facade's cancellation contract statically: context
// flows down from the caller, it is never minted mid-path. PR 4 plumbed
// ctx from Client.Recognize through exec.Pool into the event loop's
// delivery polling; a single context.Background() on that path silently
// disconnects everything below it from the caller's deadline — the
// disconnect-cancels-stream e2e test only notices when the server path
// regresses, this notices any path.
//
// Rules, sound everywhere (no directive needed):
//  1. a function that received a context.Context must not call
//     context.Background()/TODO(), except under an `if ctx == nil` default;
//  2. context.Context parameters come first (after the receiver);
//  3. an exported function outside package main and test files must not
//     feed context.Background()/TODO() straight into a callee — that is an
//     API that silently discards its caller's cancellation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "enforce context propagation: no context.Background() where a ctx was received, " +
		"ctx parameters first, exported APIs must not discard the caller's context",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		inTest := strings.HasSuffix(file, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := contextParam(pass, fd)
			checkCtxParamFirst(pass, fd)
			if ctxParam != nil {
				checkNoFreshRoot(pass, fd, ctxParam)
			} else if !inTest && exportedAPI(pass, fd) {
				checkNoDiscardedCtx(pass, fd)
			}
		}
	}
	return nil
}

// contextParam returns the object of fd's context.Context parameter, if any.
func contextParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		if !isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			return pass.TypesInfo.Defs[name]
		}
	}
	return nil
}

// checkCtxParamFirst flags context parameters that are not the first
// parameter.
func checkCtxParamFirst(pass *Pass, fd *ast.FuncDecl) {
	pos := 0
	for _, field := range fd.Type.Params.List {
		isCtx := isContextType(pass.TypesInfo.TypeOf(field.Type))
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			pass.Reportf(field.Pos(), "context.Context should be the first parameter of %s", fd.Name.Name)
		}
		pos += n
	}
}

// checkNoFreshRoot flags context.Background()/TODO() inside a function that
// already received a context, unless the call sits under an `if ctx == nil`
// default.
func checkNoFreshRoot(pass *Pass, fd *ast.FuncDecl, ctxObj types.Object) {
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleePkgFunc(pass.TypesInfo, call)
		if pkg != "context" || (name != "Background" && name != "TODO") {
			return true
		}
		if underNilGuard(pass, stack, ctxObj) {
			return true
		}
		pass.Reportf(call.Pos(), "%s received a context but calls context.%s; propagate the caller's context", fd.Name.Name, name)
		return true
	})
}

// underNilGuard reports whether the stack passes through an
// `if <ctx> == nil` (or `<ctx> == nil || ...`) condition — the sanctioned
// defaulting pattern for optional contexts.
func underNilGuard(pass *Pass, stack []ast.Node, ctxObj types.Object) bool {
	for _, anc := range stack {
		ifStmt, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.EQL {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if id, ok := ast.Unparen(side).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxObj {
					other := be.Y
					if side == be.Y {
						other = be.X
					}
					if isNilExpr(pass.TypesInfo, other) {
						guarded = true
					}
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

// checkNoDiscardedCtx flags exported ctx-less APIs that pass a fresh root
// context straight into a callee.
func checkNoDiscardedCtx(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // goroutines may legitimately detach from the caller
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			pkg, name := calleePkgFunc(pass.TypesInfo, inner)
			if pkg == "context" && (name == "Background" || name == "TODO") {
				pass.Reportf(inner.Pos(), "exported %s discards the caller's context (context.%s fed straight to %s); accept a context.Context and pass it down", fd.Name.Name, name, exprString(call.Fun))
			}
		}
		return true
	})
}

// exportedAPI reports whether fd is part of the package's exported API
// surface.
func exportedAPI(pass *Pass, fd *ast.FuncDecl) bool {
	return pass.Pkg.Name() != "main" && fd.Name.IsExported() && fd.Name.Name != "init"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
