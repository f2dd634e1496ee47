package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Hash returns a stable content hash of the spec's simulation inputs:
// config, policy, sources (service definitions, arrival processes,
// budgets, tenants), seed, program/remote overrides, the fault spec,
// and the control spec. Two specs with equal hashes produce
// bit-identical results, so the hash is the result identity that
// golden files and result caches key off.
//
// Excluded on purpose: Obs and Check (attachments that observe a run
// without changing its results) and any runtime state (an Arrivals
// value is hashed by its declared parameters, not its internal
// phase).
//
// The encoding is canonical: struct fields serialize in declaration
// order via encoding/json, map-valued fields are emitted in sorted key
// order, and every section is length- and label-delimited so field
// boundaries cannot alias.
func (s *RunSpec) Hash() string {
	h := sha256.New()
	section(h, "config", mustJSON(s.Config))

	// Policy by explicit fields: CohortPairs is a map with an array
	// key, which encoding/json cannot serialize, so it is emitted as a
	// sorted pair list.
	fmt.Fprintf(h, "policy|%s|%t|%d|%d|%t|%t|%t|%t|%t|%t\n",
		s.Policy.Name, s.Policy.UseAccels, s.Policy.Hop, s.Policy.Mediator,
		s.Policy.SharedQueue, s.Policy.DispatcherBranch, s.Policy.DispatcherTransform,
		s.Policy.ATMChaining, s.Policy.Ideal, s.Policy.EDF)
	pairs := make([]string, 0, len(s.Policy.CohortPairs))
	for pair, on := range s.Policy.CohortPairs {
		if on {
			pairs = append(pairs, fmt.Sprintf("%d>%d", pair[0], pair[1]))
		}
	}
	sort.Strings(pairs)
	for _, p := range pairs {
		section(h, "cohort", []byte(p))
	}

	for i, src := range s.Sources {
		fmt.Fprintf(h, "source|%d|requests=%d|tenant=%d\n", i, src.Requests, src.Tenant)
		section(h, "service", mustJSON(src.Service))
		// Arrival processes are interface values: the dynamic type is
		// part of the identity (a Poisson and an Azure with equal RPS
		// are different workloads).
		fmt.Fprintf(h, "arrivals|%T\n", src.Arrivals)
		section(h, "arrivals", mustJSON(src.Arrivals))
	}

	fmt.Fprintf(h, "seed|%d\n", s.Seed)

	programs, remote := catalog(s.Programs, s.Remote)
	for _, p := range programs {
		section(h, "program", mustJSON(p))
	}
	names := make([]string, 0, len(remote))
	for name := range remote {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "remote|%s|%d\n", name, remote[name])
	}
	if s.Faults != nil {
		section(h, "faults", mustJSON(s.Faults))
	}
	// Emitted only when set, like faults, so every pre-control spec
	// keeps its hash (and its cache entries).
	if s.Control != nil {
		section(h, "control", mustJSON(s.Control))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// section writes one labeled, length-delimited blob so adjacent
// sections cannot alias under concatenation.
func section(w io.Writer, label string, b []byte) {
	fmt.Fprintf(w, "%s|%d|", label, len(b))
	w.Write(b)
	w.Write([]byte{'\n'})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every hashed type is a plain data struct; a marshal failure
		// is a programming error, not an input error.
		panic(fmt.Sprintf("workload: spec hash encoding failed: %v", err))
	}
	return b
}
