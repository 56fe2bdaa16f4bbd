package apps

import (
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
)

// FuzzClusterBFS decodes arbitrary bytes into a small undirected graph plus a
// distinct source set, runs the packed traversal through engine.Run and
// through engine.RunReference, and checks every lane of each against the
// in-test queue-BFS oracle. The decoder skips
// self-loops (the graph validator rejects them) and never rejects an input —
// every byte string maps to some legal (graph, sources) pair, so the fuzzer's
// whole search space exercises the packed Apply/Gather path.
func FuzzClusterBFS(f *testing.F) {
	f.Add([]byte{8, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add([]byte{2, 1, 0, 1})
	f.Add([]byte{40, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("too short to decode a graph")
		}
		n := int(data[0])%40 + 2
		k := int(data[1])%n + 1
		if k > MaxBatchSources {
			k = MaxBatchSources
		}
		body := data[2:]

		// Sources: first k distinct vertices named by the bytes, topped up
		// deterministically from the low IDs when the bytes repeat themselves.
		used := make([]bool, n)
		srcs := make([]graph.VertexID, 0, k)
		for _, b := range body {
			if len(srcs) == k {
				break
			}
			if v := int(b) % n; !used[v] {
				used[v] = true
				srcs = append(srcs, graph.VertexID(v))
			}
		}
		for v := 0; len(srcs) < k; v++ {
			if !used[v] {
				used[v] = true
				srcs = append(srcs, graph.VertexID(v))
			}
		}

		// Edges: consecutive byte pairs, self-loops dropped.
		g := &graph.Graph{Name: "fuzz-clusterbfs", NumVertices: n}
		for i := 0; i+1 < len(body); i += 2 {
			u, v := int(body[i])%n, int(body[i+1])%n
			if u != v {
				g.Edges = append(g.Edges, E(u, v))
			}
		}

		owner := make([]engine.Machine, len(g.Edges))
		for i := range owner {
			owner[i] = engine.Machine(i % 2)
		}
		pl, err := engine.NewPlacement(g, owner, 2)
		if err != nil {
			t.Fatalf("placement: %v", err)
		}
		cl := multiCluster(t, 2)

		prog := &ClusterBFS{Sources: srcs, MaxIters: 200}
		legs := map[string][]ClusterState{}
		var errRun, errRef error
		_, legs["run"], errRun = engine.Run[ClusterState, uint64](prog, pl, cl, engine.Options{})
		_, legs["reference"], errRef = engine.RunReference[ClusterState, uint64](prog, pl, cl, engine.Options{})
		if errRun != nil || errRef != nil {
			t.Fatalf("packed run: %v, %v", errRun, errRef)
		}

		for leg, states := range legs {
			for j, s := range srcs {
				oracle := scalarBFSDistances(g, s)
				for v := range states {
					if got := states[v].Dist[j]; got != oracle[v] {
						t.Fatalf("%s: lane %d (source %d) vertex %d: packed %d, oracle %d (n=%d, %d edges)",
							leg, j, s, v, got, oracle[v], n, len(g.Edges))
					}
					if reached := states[v].Seen&(1<<uint(j)) != 0; reached != (oracle[v] >= 0) {
						t.Fatalf("%s: lane %d vertex %d: reach bit %v, oracle distance %d", leg, j, v, reached, oracle[v])
					}
				}
			}
		}
	})
}
