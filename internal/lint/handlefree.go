package lint

import (
	"go/ast"
	"go/types"

	"gompi/internal/lint/analysis"
)

// HandleFree enforces the MPI handle lifecycle: a Comm, Session, Win, File,
// or startable-request handle must not be used
// after its Free/Finalize/Close, and must not be freed twice, within the
// function that freed it. Handles reaching Free
// through struct fields or other functions are out of scope (no false
// positives, no report). Code that legitimately retries after a failed
// Free — Session.Finalize fails while comms are live, for example — can
// annotate the use with //gompilint:ignore handlefree.
var HandleFree = &analysis.Analyzer{
	Name: "handlefree",
	Doc:  "reports use of an MPI Comm/Session/Win/File handle after Free/Finalize/Close, and double frees",
	Run:  runHandleFree,
}

// handleFrees maps the releasing method of each handle type (all in
// gompi/mpi) to the diagnostic verb.
var handleFrees = map[string]map[string]string{
	"Comm":               {"Free": "freed by Comm.Free"},
	"InterComm":          {"Free": "freed by InterComm.Free"},
	"Session":            {"Finalize": "finalized by Session.Finalize"},
	"Win":                {"Free": "freed by Win.Free"},
	"File":               {"Close": "closed by File.Close"},
	"PersistentRequest":  {"Free": "freed by PersistentRequest.Free"},
	"PersistentColl":     {"Free": "freed by PersistentColl.Free"},
	"PartitionedRequest": {"Free": "freed by PartitionedRequest.Free"},
}

func runHandleFree(pass *analysis.Pass) error {
	rule := func(pass *analysis.Pass, call *ast.CallExpr) (*ast.Ident, string) {
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil {
			return nil, ""
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || pkgPathOf(fn) != "gompi/mpi" {
			return nil, ""
		}
		named := namedOf(sig.Recv().Type())
		if named == nil {
			return nil, ""
		}
		verb, ok := handleFrees[named.Obj().Name()][fn.Name()]
		if !ok {
			return nil, ""
		}
		return recvIdentOf(call), verb
	}
	runTransferAnalysis(pass, []transferRule{rule})
	return nil
}
