package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ObsDiscipline keeps the engine's telemetry one-directional: the mining
// engine feeds internal/obs, never the exposition machinery directly. The
// packages that compute results (internal/core, internal/sigfile) must not
// import expvar, net/http/pprof, runtime/pprof or runtime/trace — exposition
// belongs to internal/obs and the cmd front-ends — and must not read the
// wall clock themselves: intervals go through Registry.Tick/PhaseDone, whose
// Tick is free on a nil registry. A direct time.Now in the engine is either
// a phase timer bypassing the registry (breaking the zero-cost-when-disabled
// rule) or timing leaking into results (breaking determinism; the
// determinism analyzer reports that angle separately).
//
// The serving layer (internal/serve) is held to the same clock rule for a
// different reason: its wall-clock reads must go through the injected
// Clock seam so tests control served timestamps. The one sanctioned read —
// SystemClock in clock.go — carries a file-ignore directive. The sharded
// index (internal/shard) sits between the engine and the serving layer and
// follows the engine's rules: anything it reports goes through the
// registry, never through exposition imports or direct clock reads.
//
// The load harness (cmd/bbsload) is in scope for the import ban only: it
// measures the server from outside, so wiring expvar or pprof into the
// generator would confuse its own overhead with the system under test. Its
// wall-clock reads are its job — an open-loop generator schedules sends by
// the wall — so the clock rule is waived there.
var ObsDiscipline = &Analyzer{
	Name: "obsdiscipline",
	Doc:  "engine packages must route telemetry through internal/obs: no expvar/pprof imports, no direct wall-clock reads",
	Applies: func(path string) bool {
		return pathHasSegment(path, "internal/core") || pathHasSegment(path, "internal/sigfile") ||
			pathHasSegment(path, "internal/serve") || pathHasSegment(path, "internal/shard") ||
			pathHasSegment(path, "cmd/bbsload")
	},
	Run: runObsDiscipline,
}

// obsBannedImports are the exposition packages the engine must not touch.
var obsBannedImports = map[string]string{
	"expvar":         "publish metrics from internal/obs instead",
	"net/http/pprof": "profiling endpoints belong to the -http mux in internal/obs",
	"runtime/pprof":  "profiling is driven by the cmd front-ends",
	"runtime/trace":  "execution tracing is driven by the cmd front-ends",
}

func runObsDiscipline(pass *Pass) {
	// The load generator keeps the exposition-import ban but is free to read
	// the wall clock: open-loop pacing and client-side latency are wall-clock
	// measurements by definition.
	clockExempt := pathHasSegment(pass.Pkg.Path(), "cmd/bbsload")
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := obsBannedImports[p]; banned {
				pass.Reportf(imp.Pos(),
					"import of %s in an engine package; %s", p, why)
			}
		}
		if clockExempt {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[se.Sel].(*types.Func)
			if !ok {
				return true
			}
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "time" &&
				(fn.Name() == "Now" || fn.Name() == "Since") {
				pass.Reportf(se.Pos(),
					"time.%s in an engine package; route intervals through obs.Registry.Tick/PhaseDone so disabled telemetry stays free", fn.Name())
			}
			return true
		})
	}
}
