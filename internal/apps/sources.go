package apps

import (
	"errors"
	"fmt"
	"slices"

	"proxygraph/internal/graph"
)

// Typed source-set errors shared by the BFS-family applications (BFS, SSSP,
// ClusterBFS and the workloads built on it). Callers branch with errors.Is;
// the wrapped message names the application and the offending vertex.
var (
	// ErrNoSources reports an empty source set where at least one root is
	// required.
	ErrNoSources = errors.New("apps: no sources given")
	// ErrSourceOutOfRange reports a source vertex outside [0, NumVertices).
	ErrSourceOutOfRange = errors.New("apps: source out of range")
	// ErrDuplicateSource reports the same vertex appearing twice in a source
	// set: each packed bit lane must trace a distinct root.
	ErrDuplicateSource = errors.New("apps: duplicate source")
	// ErrTooManySources reports a source set larger than the 64 bit lanes a
	// packed word carries.
	ErrTooManySources = errors.New("apps: too many sources")
)

// validateSource checks a single-root application's source against the graph,
// the guard BFS and SSSP run before touching the engine.
func validateSource(app string, numVertices int, source graph.VertexID) error {
	if int(source) >= numVertices {
		return fmt.Errorf("%s: %w: vertex %d in a graph with %d vertices", app, ErrSourceOutOfRange, source, numVertices)
	}
	return nil
}

// validateSources checks a batched source set: non-empty, at most max roots,
// every root in range, no root twice. A set holds at most max (a packed
// word's 64 lanes), so each root is checked against the earlier ones by a
// scan, without a map.
func validateSources(app string, numVertices int, sources []graph.VertexID, max int) error {
	if len(sources) == 0 {
		return fmt.Errorf("%s: %w", app, ErrNoSources)
	}
	if len(sources) > max {
		return fmt.Errorf("%s: %w: %d sources for %d lanes", app, ErrTooManySources, len(sources), max)
	}
	for i, s := range sources {
		if int(s) >= numVertices {
			return fmt.Errorf("%s: %w: source %d is vertex %d in a graph with %d vertices",
				app, ErrSourceOutOfRange, i, s, numVertices)
		}
		if j := slices.Index(sources[:i], s); j >= 0 {
			return fmt.Errorf("%s: %w: vertex %d at indices %d and %d", app, ErrDuplicateSource, s, j, i)
		}
	}
	return nil
}
