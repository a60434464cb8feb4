package vetcheck

import (
	"go/ast"
)

// DirVer checks the coherence protocol's version discipline at its source:
// every pageGrant and pageInval the vm package constructs must stamp the
// directory's transaction counter into its Version field. Replicas order
// grants against invalidations by that counter — under a fault plan the
// fabric delays and reorders freely — so a composite literal that leaves
// Version zero ships an "older than everything" message that a replica will
// silently discard (grant) or fail to order (inval). Exactly this slip, an
// unversioned fan-out invalidation, caused a real stale-read bug; the rule
// makes the stamp mechanical.
//
// Error replies are exempt: a grant carrying Err transfers no page copy, so
// there is nothing to order. Other deliberately unversioned
// literals (e.g. replies that install nothing) take a justified
// //popcornvet:allow dirver directive.
type DirVer struct{}

// Name implements Analyzer.
func (DirVer) Name() string { return "dirver" }

// versionedPayloads are the version-carrying coherence payloads.
var versionedPayloads = []anchor{declare("vm", "", "pageGrant"), declare("vm", "", "pageInval")}

// Check implements Analyzer.
func (DirVer) Check(t *Tree) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				name := ""
				for _, a := range versionedPayloads {
					if a.isType(pkg.info.TypeOf(cl)) {
						name = a.name
					}
				}
				if name == "" {
					return true
				}
				var hasVersion, isError bool
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					switch key, _ := kv.Key.(*ast.Ident); {
					case key == nil:
					case key.Name == "Version":
						hasVersion = true
					case key.Name == "Err":
						isError = true
					}
				}
				if !hasVersion && !isError {
					out = append(out, Finding{
						Pos:  t.Fset.Position(cl.Pos()),
						Rule: "dirver",
						Message: name + " literal without Version: an unversioned " +
							"grant/invalidation cannot be ordered against concurrent " +
							"directory transactions and replicas will mis-sequence it",
					})
				}
				return true
			})
		}
	}
	return out
}
