// Package tdd implements the Tenant-Driven Design (thesis §4): the cluster
// design that arranges machine nodes into groups running one MPPDB each, the
// tenant placement that replicates every tenant onto all A MPPDBs of its
// group, and the query-routing policy (Algorithm 1) that gives each active
// tenant a dedicated MPPDB.
//
// TDD's guarantee (Guarantee 1): whatever the tenants' query shapes —
// linear or non-linear scale-out, sequential ad-hoc analysis or concurrent
// report batches at any multi-programming level — the SLAs of up to A
// concurrently active tenants are met, because each active tenant's queries
// run exclusively on an MPPDB with at least its requested degree of
// parallelism.
package tdd

import (
	"fmt"

	"repro/internal/tenant"
)

// ClusterDesign describes how one tenant-group's machine nodes are arranged
// (§4.1): A groups of nodes, each running a single MPPDB. Group G₀ is the
// "tuning MPPDB" with U ≥ n₁ nodes (§6); groups G₁…G_{A−1} have n₁ nodes,
// where n₁ is the largest member tenant's request.
type ClusterDesign struct {
	// A is the number of MPPDBs (= the replication factor, Property 1).
	A int
	// N1 is n₁, the largest tenant's requested node count.
	N1 int
	// U is the tuning MPPDB's node count, n₁ ≤ U.
	U int
}

// NewClusterDesign validates and builds a design. U=0 means "default", i.e.
// U = n₁ (§4.1: "now we assume U = n₁").
func NewClusterDesign(a, n1, u int) (ClusterDesign, error) {
	if a < 1 {
		return ClusterDesign{}, fmt.Errorf("tdd: A=%d MPPDBs", a)
	}
	if n1 < 1 {
		return ClusterDesign{}, fmt.Errorf("tdd: n₁=%d", n1)
	}
	if u == 0 {
		u = n1
	}
	if u < n1 {
		return ClusterDesign{}, fmt.Errorf("tdd: U=%d below n₁=%d", u, n1)
	}
	return ClusterDesign{A: a, N1: n1, U: u}, nil
}

// TotalNodes returns the nodes the design consumes: U + (A−1)·n₁.
func (d ClusterDesign) TotalNodes() int { return d.U + (d.A-1)*d.N1 }

// GroupNodes returns the node count of MPPDB i (0 = the tuning MPPDB).
func (d ClusterDesign) GroupNodes(i int) (int, error) {
	if i < 0 || i >= d.A {
		return 0, fmt.Errorf("tdd: MPPDB index %d outside [0,%d)", i, d.A)
	}
	if i == 0 {
		return d.U, nil
	}
	return d.N1, nil
}

// Placement is the tenant placement of one tenant-group (§4.2): every member
// tenant is deployed on all A MPPDBs, which enforces a replication factor of
// A (Property 1).
type Placement struct {
	Design ClusterDesign
	// Tenants are the member tenant IDs.
	Tenants []string
}

// ReplicationFactor returns the number of copies of each tenant's data.
func (p Placement) ReplicationFactor() int { return p.Design.A }

// Hosts reports whether the placement includes the tenant.
func (p Placement) Hosts(tenant string) bool {
	for _, t := range p.Tenants {
		if t == tenant {
			return true
		}
	}
	return false
}

// MPPDBStateRef is the router's view of one MPPDB at routing time. The
// tenant is identified by its dense group-local Ref, so the in-flight check
// is a slice index rather than a map hash.
type MPPDBStateRef interface {
	// Busy reports whether the MPPDB is executing any query.
	Busy() bool
	// RefRunning returns the number of queries the given tenant ref
	// currently has executing on this MPPDB.
	RefRunning(ref tenant.Ref) int
}

// RouteRef implements Algorithm 1 against the live states of a
// tenant-group's A MPPDBs (index 0 is the tuning MPPDB G₀). It returns the
// index of the MPPDB the query must go to:
//
//  1. if the tenant already has queries running on some MPPDB, follow them
//     (tenant affinity — one MPPDB serves all of an active tenant's
//     concurrent queries until it goes inactive);
//  2. otherwise prefer a free G₀;
//  3. otherwise any free MPPDB;
//  4. otherwise G₀, accepting concurrent processing (this is the overload
//     path whose pain the administrator can tune away by raising U, §6).
func RouteRef(ref tenant.Ref, dbs []MPPDBStateRef) (int, error) {
	if len(dbs) == 0 {
		return 0, fmt.Errorf("tdd: no MPPDBs to route to")
	}
	for i, db := range dbs {
		if db.RefRunning(ref) > 0 {
			return i, nil // line 2: follow the tenant's in-flight queries
		}
	}
	if !dbs[0].Busy() {
		return 0, nil // line 5: the tuning MPPDB is free
	}
	for i := 1; i < len(dbs); i++ {
		if !dbs[i].Busy() {
			return i, nil // line 8: any free MPPDB
		}
	}
	return 0, nil // line 10: concurrent processing on G₀
}
