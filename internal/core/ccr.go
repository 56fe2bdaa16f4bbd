// Package core implements the paper's primary contribution: the Computation
// Capability Ratio (CCR) metric, the synthetic-proxy profiling methodology
// that measures it, and the estimators it is compared against.
//
// For application i and machine j, Eq 1 defines
//
//	CCR_{i,j} = max_j(t_{i,j}) / t_{i,j}
//
// where t is the application's execution time on machine j in isolation: the
// slowest machine has ratio 1, a machine twice as fast has ratio 2. The CCRs
// become edge shares for the heterogeneity-aware partitioners of package
// partition, so "heterogeneous machines can reach the synchronization
// barrier at the same time".
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"proxygraph/internal/cluster"
	"proxygraph/internal/partition"
)

// CCR holds one application's capability ratios by machine group (machine
// type name). The slowest group has ratio 1.
type CCR struct {
	// App is the application the ratios were measured for.
	App string `json:"app"`
	// Ratios maps machine group name to capability ratio (>= 1 except for
	// numerical noise; the slowest group is 1).
	Ratios map[string]float64 `json:"ratios"`
}

// FromTimes builds a CCR from per-group execution times (Eq 1).
func FromTimes(app string, times map[string]float64) (CCR, error) {
	if len(times) == 0 {
		return CCR{}, fmt.Errorf("core: no execution times for %q", app)
	}
	slowest := 0.0
	for g, t := range times {
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return CCR{}, fmt.Errorf("core: invalid time %v for group %q", t, g)
		}
		if t > slowest {
			slowest = t
		}
	}
	c := CCR{App: app, Ratios: make(map[string]float64, len(times))}
	for g, t := range times {
		c.Ratios[g] = slowest / t
	}
	return c, nil
}

// Groups returns the group names in sorted order.
func (c CCR) Groups() []string {
	gs := make([]string, 0, len(c.Ratios))
	for g := range c.Ratios {
		gs = append(gs, g)
	}
	sort.Strings(gs)
	return gs
}

// SharesFor converts the CCR into a normalized per-machine share vector for
// the given cluster: each machine's share is proportional to its group's
// ratio. This is the weight vector the heterogeneity-aware partitioners
// consume. The ratios are written into the returned slice and normalized
// there (partition.NormalizeSharesInPlace), so the vector is the call's one
// allocation.
func (c CCR) SharesFor(cl *cluster.Cluster) ([]float64, error) {
	shares := make([]float64, cl.Size())
	for i, m := range cl.Machines {
		r, ok := c.Ratios[m.Name]
		if !ok {
			return nil, fmt.Errorf("core: CCR for %q has no ratio for machine group %q", c.App, m.Name)
		}
		shares[i] = r
	}
	if err := partition.NormalizeSharesInPlace(shares); err != nil {
		return nil, err
	}
	return shares, nil
}

// Error returns the mean relative error of this CCR against a ground-truth
// CCR over the groups of truth, the accuracy metric of Section V-A
// ("we reduce the heterogeneity estimation error from 108% to 8%").
func (c CCR) Error(truth CCR) (float64, error) {
	if len(truth.Ratios) == 0 {
		return 0, fmt.Errorf("core: empty ground truth")
	}
	sum, n := 0.0, 0
	for g, want := range truth.Ratios {
		got, ok := c.Ratios[g]
		if !ok {
			return 0, fmt.Errorf("core: estimate missing group %q", g)
		}
		if want == 0 {
			return 0, fmt.Errorf("core: zero ground-truth ratio for %q", g)
		}
		sum += math.Abs(got-want) / want
		n++
	}
	return sum / float64(n), nil
}

// Pool is the CCR pool of Fig 7a: the offline-profiled CCR of every reusable
// application, keyed by application name. Pools serialize to JSON so
// proxygraph profile can persist them ("each application's CCR will be collected
// into a CCR pool for future use").
//
// A pool also remembers the share vector each application's CCR gives on each
// cluster (SharesFor), so later jobs reuse the one-time measurement instead
// of rebuilding it. It is safe for concurrent use, and must not be copied.
type Pool struct {
	mu     sync.Mutex
	ccrs   map[string]CCR
	shares map[sharesKey][]float64
}

// sharesKey names one memoized share vector: an application on a cluster.
type sharesKey struct {
	app string
	cl  *cluster.Cluster
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{ccrs: map[string]CCR{}} }

// Put stores an application's CCR, replacing any previous entry and the share
// vectors built from it.
func (p *Pool) Put(c CCR) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ccrs[c.App] = c
	for k := range p.shares {
		if k.app == c.App {
			delete(p.shares, k)
		}
	}
}

// Get returns the CCR for the application.
func (p *Pool) Get(app string) (CCR, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.ccrs[app]
	return c, ok
}

// SharesFor returns the application's share vector on cl (CCR.SharesFor).
// The first call for an (app, cluster) pair builds it; later calls return the
// same slice, so it is read-only: callers must not write to it. The cluster
// is keyed by address and must not change after the first call.
func (p *Pool) SharesFor(app string, cl *cluster.Cluster) ([]float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := sharesKey{app, cl}
	if s, ok := p.shares[key]; ok {
		return s, nil
	}
	c, ok := p.ccrs[app]
	if !ok {
		return nil, fmt.Errorf("core: no CCR for %q", app)
	}
	s, err := c.SharesFor(cl)
	if err != nil {
		return nil, err
	}
	if p.shares == nil {
		p.shares = map[sharesKey][]float64{}
	}
	p.shares[key] = s
	return s, nil
}

// Apps returns the pooled application names in sorted order.
func (p *Pool) Apps() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appsLocked()
}

// appsLocked is Apps for a caller that holds p.mu.
func (p *Pool) appsLocked() []string {
	names := make([]string, 0, len(p.ccrs))
	for n := range p.ccrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of pooled applications.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ccrs)
}

// MarshalJSON implements json.Marshaler.
func (p *Pool) MarshalJSON() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := make([]CCR, 0, len(p.ccrs))
	for _, name := range p.appsLocked() {
		list = append(list, p.ccrs[name])
	}
	return json.Marshal(list)
}

// UnmarshalJSON implements json.Unmarshaler. It refuses what no profiling
// run produces: an empty or repeated app name, an app with no ratios, a ratio
// that is not finite and positive, and ratios whose smallest is not exactly 1
// (Eq 1 gives the slowest group ratio 1). On error p is left unchanged.
func (p *Pool) UnmarshalJSON(data []byte) error {
	var list []CCR
	if err := json.Unmarshal(data, &list); err != nil {
		return err
	}
	ccrs := make(map[string]CCR, len(list))
	for _, c := range list {
		if _, dup := ccrs[c.App]; dup || c.App == "" {
			return fmt.Errorf("core: pool app name %q is empty or repeated", c.App)
		}
		if len(c.Ratios) == 0 {
			return fmt.Errorf("core: pool entry %q has no ratios", c.App)
		}
		slowest := math.Inf(1)
		for g, r := range c.Ratios {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("core: pool entry %q has ratio %v for group %q", c.App, r, g)
			}
			slowest = math.Min(slowest, r)
		}
		if slowest != 1 {
			return fmt.Errorf("core: pool entry %q has smallest ratio %v, want 1", c.App, slowest)
		}
		ccrs[c.App] = c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ccrs = ccrs
	clear(p.shares)
	return nil
}

// SaveFile writes the pool as indented JSON to path.
func (p *Pool) SaveFile(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadPoolFile reads a pool written by SaveFile (or proxygraph profile).
func LoadPoolFile(path string) (*Pool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := NewPool()
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("core: parsing pool %s: %w", path, err)
	}
	return p, nil
}
