package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Network models the interconnect between machines: full bisection bandwidth
// per node plus a per-exchange latency. The paper's local nodes are
// "connected via high-speed router"; minimizing communication is explicitly
// out of the paper's scope (Section III-B), so a simple linear model
// suffices.
type Network struct {
	// BandwidthGBs is per-machine NIC bandwidth in GB/s.
	BandwidthGBs float64
	// LatencySec is the fixed cost of one synchronization exchange.
	LatencySec float64
}

// DefaultNetwork returns a 10 Gb/s, 50 µs interconnect.
func DefaultNetwork() Network {
	return Network{BandwidthGBs: 1.25, LatencySec: 50e-6}
}

// TransferTime returns the seconds one machine spends moving bytes.
func (n Network) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return n.LatencySec + bytes/(n.BandwidthGBs*1e9)
}

// Cluster is a set of machines with an interconnect.
type Cluster struct {
	Machines []Machine
	Net      Network
}

// New builds a cluster over the given machines with the default network.
func New(machines ...Machine) (*Cluster, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cluster: need at least one machine")
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	return &Cluster{Machines: machines, Net: DefaultNetwork()}, nil
}

// Parse builds a cluster from a comma-separated machine list. Each entry is
// either a Table I catalog name ("c4.2xlarge") or a custom local Xeon in
// name:cores:freqGHz form ("xeon:12:2.5"); blank entries are skipped.
func Parse(spec string) (*Cluster, error) {
	var machines []Machine
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if m, ok := ByName(entry); ok {
			machines = append(machines, m)
			continue
		}
		fields := strings.Split(entry, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("machine %q: not in catalog and not name:cores:freqGHz", entry)
		}
		cores, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("machine %q: bad core count: %v", entry, err)
		}
		freq, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("machine %q: bad frequency: %v", entry, err)
		}
		machines = append(machines, LocalXeon(fmt.Sprintf("%s-%dc", fields[0], cores), cores, freq))
	}
	return New(machines...)
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.Machines) }

// Groups partitions machine indices by machine type (Name). Profiling runs
// once per group (Section III-B: "all C4.xlarge machines within the deployed
// cluster should be treated as one group, but only one of them needs to be
// profiled"). Group keys are returned in sorted order for determinism.
func (c *Cluster) Groups() (keys []string, members map[string][]int) {
	members = map[string][]int{}
	for i, m := range c.Machines {
		members[m.Name] = append(members[m.Name], i)
	}
	keys = make([]string, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, members
}
