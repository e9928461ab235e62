package analysis

import (
	"go/ast"
	"go/types"
)

// This file recognizes the call shapes the pmsortvet analyzers share:
// comm.Communicator.Send/Recv, the coll/delivery collectives, and the
// obs recorder methods. Matching is structural (method name plus
// signature, or package-basename plus function name), so the analyzers
// work unchanged on the real packages and on the small fixture stubs
// under each analyzer's testdata/src.

// isEmptyIface reports whether t is interface{} / any.
func isEmptyIface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.Empty()
}

func isBasicKind(t types.Type, k types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == k
}

// isSendSig matches func(to, tag int, payload any, words int64).
func isSendSig(sig *types.Signature) bool {
	p := sig.Params()
	return p.Len() == 4 && sig.Results().Len() == 0 &&
		isBasicKind(p.At(0).Type(), types.Int) &&
		isBasicKind(p.At(1).Type(), types.Int) &&
		isEmptyIface(p.At(2).Type()) &&
		isBasicKind(p.At(3).Type(), types.Int64)
}

// isRecvSig matches func(from, tag int) (any, int64).
func isRecvSig(sig *types.Signature) bool {
	p, r := sig.Params(), sig.Results()
	return p.Len() == 2 && r.Len() == 2 &&
		isBasicKind(p.At(0).Type(), types.Int) &&
		isBasicKind(p.At(1).Type(), types.Int) &&
		isEmptyIface(r.At(0).Type()) &&
		isBasicKind(r.At(1).Type(), types.Int64)
}

// calleeMethod returns the method object a call invokes through a
// selector, or nil.
func calleeMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil {
		if f, ok := s.Obj().(*types.Func); ok {
			return f
		}
		return nil
	}
	// Package-qualified function (pkg.F): not a method.
	return nil
}

// CommSend matches a comm.Communicator.Send-shaped method call and
// returns its payload argument.
func CommSend(info *types.Info, call *ast.CallExpr) (payload ast.Expr, ok bool) {
	f := calleeMethod(info, call)
	if f == nil || f.Name() != "Send" || len(call.Args) != 4 {
		return nil, false
	}
	if !isSendSig(f.Type().(*types.Signature)) {
		return nil, false
	}
	return call.Args[2], true
}

// CommSendTag matches Send and returns its tag argument.
func CommSendTag(info *types.Info, call *ast.CallExpr) (tag ast.Expr, ok bool) {
	if _, ok := CommSend(info, call); !ok {
		return nil, false
	}
	return call.Args[1], true
}

// CommRecvTag matches a comm.Communicator.Recv-shaped method call and
// returns its tag argument.
func CommRecvTag(info *types.Info, call *ast.CallExpr) (tag ast.Expr, ok bool) {
	f := calleeMethod(info, call)
	if f == nil || f.Name() != "Recv" || len(call.Args) != 2 {
		return nil, false
	}
	if !isRecvSig(f.Type().(*types.Signature)) {
		return nil, false
	}
	return call.Args[1], true
}

// collPayloadArg maps collective function name → index of the argument
// whose ownership transfers to the communication layer (the payload a
// caller must not mutate after the call; DESIGN.md §6). Matched only
// for functions in a package whose basename is "coll" or "delivery".
var collPayloadArg = map[string]int{
	"Bcast":                      2,
	"Reduce":                     2,
	"Allreduce":                  1,
	"ExScan":                     1,
	"ScanTotal":                  1,
	"Gatherv":                    2,
	"Allgatherv":                 1,
	"AllgatherMerge":             1,
	"AlltoallI64":                1,
	"AllreduceSumI64":            1,
	"AlltoallvDirect":            1,
	"AlltoallvDirectFunc":        1,
	"AlltoallvDirectStream":      1,
	"AlltoallvDirectStreamFunc":  1,
	"Alltoallv1Factor":           1,
	"Alltoallv1FactorFunc":       1,
	"Alltoallv1FactorStream":     1,
	"Alltoallv1FactorStreamFunc": 1,
	"Deliver":                    1,
	"DeliverStream":              1,
}

// CollectivePayload matches a coll/delivery collective call and returns
// the payload argument whose ownership transfers at the call.
func CollectivePayload(info *types.Info, call *ast.CallExpr) (payload ast.Expr, ok bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if info.Selections[fun] != nil {
			return nil, false // method, not package-level func
		}
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		} else if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			obj = info.Uses[sel.Sel]
		}
	default:
		return nil, false
	}
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return nil, false
	}
	base := pkgBasename(f.Pkg().Path())
	if base != "coll" && base != "delivery" {
		return nil, false
	}
	idx, ok := collPayloadArg[f.Name()]
	if !ok || idx >= len(call.Args) {
		return nil, false
	}
	return call.Args[idx], true
}

// PkgBasename returns the final element of an import path.
func PkgBasename(path string) string { return pkgBasename(path) }

func pkgBasename(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// ObsCall matches a call to an obs recorder/span method whose
// arguments must be allocation-free (the nil-recorder zero-cost
// contract, DESIGN.md §12) and returns the argument list to audit.
func ObsCall(info *types.Info, call *ast.CallExpr) (args []ast.Expr, ok bool) {
	f := calleeMethod(info, call)
	if f == nil || f.Pkg() == nil || pkgBasename(f.Pkg().Path()) != "obs" {
		return nil, false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	rt := recv.Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return nil, false
	}
	switch named.Obj().Name() {
	case "Recorder":
		switch f.Name() {
		case "Start", "StartLevel", "Counter", "Gauge", "PeerSend", "PeerRecv":
			return call.Args, true
		}
	case "Span", "Counter", "Gauge":
		return call.Args, true
	}
	return nil, false
}
