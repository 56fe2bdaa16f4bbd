package engine

// Test hooks for the external engine_test package, whose tests drive the
// engine through the applications in internal/apps.

// LocalEdgesBuilt reports whether pl's LocalEdges index exists, without
// building it. It must not race with pl's first LocalEdges call.
func LocalEdgesBuilt(pl *Placement) bool { return pl.local.edges != nil }

var (
	SpecGraphs  = specGraphs
	HashedOwner = hashedOwner
	ClusterOf   = testCluster
)
