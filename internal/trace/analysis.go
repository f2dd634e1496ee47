package trace

import (
	"sort"

	"accelflow/internal/config"
)

// Endpoint is an accelerator kind or the CPU, used when reporting
// source/destination connectivity (paper Table I).
type Endpoint int

// EndpointCPU marks the CPU side of a connection.
const EndpointCPU Endpoint = -1

// String names the endpoint.
func (e Endpoint) String() string {
	if e == EndpointCPU {
		return "CPU"
	}
	return config.AccelKind(e).String()
}

// Connectivity accumulates, per accelerator, the set of sources feeding
// it and the set of destinations consuming its output, across a trace
// catalog and all branch outcomes. It reproduces Table I.
type Connectivity struct {
	Sources      map[config.AccelKind]map[Endpoint]bool
	Destinations map[config.AccelKind]map[Endpoint]bool
	// PairCount counts how often each directed accelerator pair is
	// adjacent; Cohort's static links are chosen from the top pairs.
	PairCount map[[2]config.AccelKind]int
}

// NewConnectivity returns an empty accumulator.
func NewConnectivity() *Connectivity {
	c := &Connectivity{
		Sources:      map[config.AccelKind]map[Endpoint]bool{},
		Destinations: map[config.AccelKind]map[Endpoint]bool{},
		PairCount:    map[[2]config.AccelKind]int{},
	}
	for k := config.AccelKind(0); k < config.NumAccelKinds; k++ {
		c.Sources[k] = map[Endpoint]bool{}
		c.Destinations[k] = map[Endpoint]bool{}
	}
	return c
}

// AddPath records one executed accelerator sequence. The CPU bounds
// both ends (the core enqueues the first accelerator; the last one
// notifies a core) unless the trace chains onward via an ATM tail, in
// which case the caller concatenates paths before calling AddPath.
func (c *Connectivity) AddPath(path []config.AccelKind) {
	if len(path) == 0 {
		return
	}
	c.Sources[path[0]][EndpointCPU] = true
	c.Destinations[path[len(path)-1]][EndpointCPU] = true
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		c.Sources[b][Endpoint(a)] = true
		c.Destinations[a][Endpoint(b)] = true
		c.PairCount[[2]config.AccelKind{a, b}]++
	}
}

// AddProgram records the paths of all 32 flag combinations of a
// program. Tails are not followed (the catalog analysis concatenates
// where needed).
func (c *Connectivity) AddProgram(p *Program) {
	seen := map[string]bool{}
	for f := 0; f < 32; f++ {
		path, _, _ := p.Invocations(Flags(f))
		key := pathKey(path)
		if seen[key] {
			continue
		}
		seen[key] = true
		c.AddPath(path)
	}
}

func pathKey(path []config.AccelKind) string {
	b := make([]byte, len(path))
	for i, a := range path {
		b[i] = byte(a)
	}
	return string(b)
}

// TopPairs returns the n most frequent directed adjacent pairs,
// most-frequent first (ties broken by kind order for determinism).
func (c *Connectivity) TopPairs(n int) [][2]config.AccelKind {
	type pc struct {
		p [2]config.AccelKind
		n int
	}
	var all []pc
	// order-insensitive: sorted below by count, then pair, a total order.
	for p, cnt := range c.PairCount {
		all = append(all, pc{p, cnt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		if all[i].p[0] != all[j].p[0] {
			return all[i].p[0] < all[j].p[0]
		}
		return all[i].p[1] < all[j].p[1]
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([][2]config.AccelKind, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].p
	}
	return out
}

// EndpointList returns a sorted slice of the endpoints in a set.
func EndpointList(set map[Endpoint]bool) []Endpoint {
	var out []Endpoint
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
