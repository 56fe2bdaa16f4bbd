package exp

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/powerlaw"
)

// TableI reproduces the paper's Table I: the Amazon virtual machine and
// local physical machine configurations.
func TableI() *metrics.Table {
	t := metrics.NewTable("Table I: Amazon Virtual Machine and Local Physical Machine Configurations",
		"Name", "HW Threads", "Computing Threads", "Cost Rate", "Type")
	for _, m := range cluster.Catalog() {
		cost := "N/A"
		if m.CostPerHour > 0 {
			cost = fmt.Sprintf("$%.3f/hour", m.CostPerHour)
		}
		kind := "Physical"
		if m.Virtual {
			kind = "Virtual"
		}
		t.AddRow(m.Name, fmt.Sprint(m.HWThreads), fmt.Sprint(m.ComputeThreads), cost, kind)
	}
	return t
}

// TableII reproduces the paper's Table II: the real-world and synthetic
// graphs with vertex/edge counts, footprints and fitted α values. Graphs are
// generated at the lab's scale; the α column is fitted from the generated
// graph via the Newton procedure of Section III-A3, and the full-size
// published counts are shown alongside.
func (l *Lab) TableII() (*metrics.Table, error) {
	t := metrics.NewTable(fmt.Sprintf("Table II: graphs at scale 1/%d", l.Cfg.Scale),
		"Name", "Vertices", "Edges", "Footprint", "Alpha (fitted)", "Paper |V|", "Paper |E|")
	for _, spec := range gen.TableII() {
		g, err := l.Graph(spec)
		if err != nil {
			return nil, err
		}
		alpha, err := powerlaw.FitAlphaForGraph(int64(g.NumVertices), int64(g.NumEdges()))
		if err != nil {
			return nil, err
		}
		t.AddRow(
			spec.Name,
			fmt.Sprint(g.NumVertices),
			fmt.Sprint(g.NumEdges()),
			fmt.Sprintf("%.1fMB", float64(g.FootprintBytes())/(1<<20)),
			metrics.F(alpha, 2),
			fmt.Sprint(spec.Vertices),
			fmt.Sprint(spec.Edges),
		)
	}
	t.AddNote("synthetic proxies declare alpha 1.95 / 2.1 / 2.3 (paper Table II)")
	return t, nil
}
