package lint

import (
	"go/token"
	"sort"
	"strings"
)

// AllocFree statically re-proves the zero-allocation contracts that
// TestSchedulerSteadyStateAllocs and TestExploreSteadyStateAllocs pin at
// runtime (DESIGN.md §10/§13). A function annotated
//
//	//alloc:free <note>
//
// is a steady-state root: neither it nor anything it can reach through the
// call graph may allocate once arenas are warm. Detected site kinds: make,
// new, map/slice literals, &composite literals, closure captures and bound
// method values, goroutine spawns, string concatenation, interface boxing
// (arguments, returns, conversions), string<->[]byte copies, appends to
// fresh local slices, and calls to external functions not on the vetted
// non-allocating allowlist.
//
// Two rules keep the contract honest without drowning the arena idiom:
//
//   - cold paths are excluded — a site whose enclosing path terminates with
//     a non-nil error return or a panic never runs in steady state;
//   - amortized growth is excluded — append whose backing traces to a struct
//     field, parameter, or package variable persists across calls, which is
//     exactly the grow-only arena pattern.
//
// Residual warmup sites (the `if cap(buf) < n { buf = make(...) }` growers)
// are declared with //alloc:amortized <reason> on the function, or per site
// with //lint:ignore allocfree <reason>.
//
// Findings are reported at the allocation site (so suppression stays local)
// and carry the root and the full call chain that reaches it.
var AllocFree = &Analyzer{
	Name:       "allocfree",
	Doc:        "proves //alloc:free roots reach no steady-state allocation site through the call graph",
	RunProgram: runAllocFree,
}

func runAllocFree(p *ProgramPass) {
	prog := p.Prog
	var roots []*FuncInfo
	for _, fi := range prog.funcList {
		if fi.AllocFree {
			roots = append(roots, fi)
		}
		if fi.Amortized && fi.AmortizedReason == "" {
			p.Reportf(fi.amortizedPos, "alloc:amortized requires a reason: //alloc:amortized <reason>")
		}
	}
	// Each allocation site is reported once, for the first root (in
	// declaration order) that reaches it, with the full chain.
	reported := map[token.Pos]bool{}
	for _, root := range roots {
		for _, hit := range reachableAllocSites(prog, root) {
			if reported[hit.site.Pos] {
				continue
			}
			reported[hit.site.Pos] = true
			p.Reportf(hit.site.Pos, "%s on //alloc:free path %s: %s",
				hit.site.Desc, chainString(root, hit.chain), hit.site.Kind)
		}
	}
}

// allocHit is one reachable allocation site with the call chain from the
// root to the function containing it.
type allocHit struct {
	site  AllocSite
	chain []*FuncInfo
}

// reachableAllocSites walks the call graph breadth-first from root,
// restricted to functions whose transitive summary allocates, and collects
// every direct site. BFS parent links reconstruct the shortest chain.
func reachableAllocSites(prog *Program, root *FuncInfo) []allocHit {
	type qent struct {
		fi     *FuncInfo
		parent int
	}
	queue := []qent{{fi: root, parent: -1}}
	seen := map[*FuncInfo]bool{root: true}
	chainTo := func(qi int) []*FuncInfo {
		var chain []*FuncInfo
		for i := qi; i >= 0; i = queue[i].parent {
			chain = append(chain, queue[i].fi)
		}
		for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
			chain[l], chain[r] = chain[r], chain[l]
		}
		return chain
	}
	var hits []allocHit
	for qi := 0; qi < len(queue); qi++ {
		fi := queue[qi].fi
		if fi.Amortized {
			// Everything an amortized function does — its own sites and any
			// allocation in its callees — happens only on the warmup path the
			// annotation vouches for, so the whole subtree is pruned.
			continue
		}
		for _, site := range fi.Summary.AllocSites {
			hits = append(hits, allocHit{site: site, chain: chainTo(qi)})
		}
		for _, cs := range fi.Calls {
			for _, callee := range cs.Callees {
				ci := prog.Funcs[callee]
				if ci == nil || seen[ci] || !ci.Summary.Allocates {
					continue
				}
				seen[ci] = true
				queue = append(queue, qent{fi: ci, parent: qi})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].site.Pos < hits[j].site.Pos })
	return hits
}

// chainString renders "root -> a -> b" for diagnostics.
func chainString(root *FuncInfo, chain []*FuncInfo) string {
	names := make([]string, 0, len(chain))
	for _, fi := range chain {
		names = append(names, fi.Name())
	}
	if len(names) == 0 {
		names = []string{root.Name()}
	}
	return strings.Join(names, " -> ")
}
