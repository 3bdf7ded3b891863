package tdd

import (
	"testing"

	"repro/internal/tenant"
)

// ids interns the tenant names the routing tests use.
var ids = tenant.NewInterner()

func ref(id string) tenant.Ref { return ids.Intern(id) }

// fakeDB implements MPPDBStateRef for routing tests.
type fakeDB struct {
	busy    bool
	running map[tenant.Ref]int
}

func (f *fakeDB) Busy() bool                  { return f.busy || len(f.running) > 0 }
func (f *fakeDB) RefRunning(r tenant.Ref) int { return f.running[r] }

func free() *fakeDB             { return &fakeDB{} }
func busyWith(t string) *fakeDB { return &fakeDB{running: map[tenant.Ref]int{ref(t): 1}} }

func TestNewClusterDesign(t *testing.T) {
	d, err := NewClusterDesign(3, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.U != 6 {
		t.Errorf("default U = %d, want n₁ = 6", d.U)
	}
	if d.TotalNodes() != 18 {
		t.Errorf("TotalNodes = %d, want 18 (the Fig 4.1 toy example)", d.TotalNodes())
	}
	if n, _ := d.GroupNodes(0); n != 6 {
		t.Errorf("G0 nodes = %d", n)
	}
	if n, _ := d.GroupNodes(2); n != 6 {
		t.Errorf("G2 nodes = %d", n)
	}
	if _, err := d.GroupNodes(3); err == nil {
		t.Error("out-of-range group accepted")
	}
	if _, err := NewClusterDesign(0, 6, 0); err == nil {
		t.Error("A=0 accepted")
	}
	if _, err := NewClusterDesign(3, 0, 0); err == nil {
		t.Error("n₁=0 accepted")
	}
	if _, err := NewClusterDesign(3, 6, 4); err == nil {
		t.Error("U < n₁ accepted")
	}
}

func TestManualTuningU(t *testing.T) {
	// §6: the administrator raises U from 10 to 12 to give G₀ headroom.
	d, err := NewClusterDesign(3, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalNodes() != 32 {
		t.Errorf("TotalNodes = %d, want 12 + 2·10 = 32", d.TotalNodes())
	}
	if n, _ := d.GroupNodes(0); n != 12 {
		t.Errorf("tuning MPPDB nodes = %d, want 12", n)
	}
}

func TestPlacement(t *testing.T) {
	d, _ := NewClusterDesign(3, 6, 0)
	p := Placement{Design: d, Tenants: []string{"T1", "T2"}}
	if p.ReplicationFactor() != 3 {
		t.Errorf("replication = %d, want A = 3 (Property 1)", p.ReplicationFactor())
	}
	if !p.Hosts("T1") || p.Hosts("T9") {
		t.Error("Hosts wrong")
	}
}

// TestRouteFollowsPaperWalkthrough replays the §4.3 walkthrough of Figure
// 4.2 decision by decision.
func TestRouteFollowsPaperWalkthrough(t *testing.T) {
	db0, db1, db2 := free(), free(), free()
	dbs := []MPPDBStateRef{db0, db1, db2}
	route := func(tenant string) int {
		i, err := RouteRef(ref(tenant), dbs)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}

	// Q1 by T4: all free → MPPDB0 (line 5).
	if got := route("T4"); got != 0 {
		t.Fatalf("Q1 routed to %d, want 0", got)
	}
	db0.running = map[tenant.Ref]int{ref("T4"): 1}

	// Q2 by T2: MPPDB0 busy → free MPPDB1 (line 8).
	if got := route("T2"); got != 1 {
		t.Fatalf("Q2 routed to %d, want 1", got)
	}
	db1.running = map[tenant.Ref]int{ref("T2"): 1}

	// Q3 by T4 while Q1 still running → follow to MPPDB0 (line 2).
	if got := route("T4"); got != 0 {
		t.Fatalf("Q3 routed to %d, want 0", got)
	}
	db0.running[ref("T4")] = 2

	// Q4 by T2 while Q2 running → MPPDB1 (line 2).
	if got := route("T2"); got != 1 {
		t.Fatalf("Q4 routed to %d, want 1", got)
	}

	// Q5 by T9: MPPDB0 and MPPDB1 busy → free MPPDB2 (line 8).
	if got := route("T9"); got != 2 {
		t.Fatalf("Q5 routed to %d, want 2", got)
	}
	db2.running = map[tenant.Ref]int{ref("T9"): 1}

	// T4 finishes Q1 and Q3; T1 submits Q6 → MPPDB0 free again (line 5).
	db0.running = nil
	if got := route("T1"); got != 0 {
		t.Fatalf("Q6 routed to %d, want 0", got)
	}
	db0.running = map[tenant.Ref]int{ref("T1"): 1}

	// Q7 by T4 (its queries finished, so no affinity): MPPDB0 busy with T1,
	// MPPDB1 busy with T2... in the thesis MPPDB1 had just become free and
	// Q7 goes there. Clear MPPDB1 to match the timeline.
	db1.running = nil
	if got := route("T4"); got != 1 {
		t.Fatalf("Q7 routed to %d, want 1", got)
	}
	db1.running = map[tenant.Ref]int{ref("T4"): 1}

	// Q8 by T1 — T1 is briefly inactive in the thesis but all other MPPDBs
	// are busy, so Q8 still lands on MPPDB0... here T1's Q6 is still
	// running, so affinity (line 2) routes it to MPPDB0 anyway.
	if got := route("T1"); got != 0 {
		t.Fatalf("Q8 routed to %d, want 0", got)
	}
}

func TestRouteOverloadGoesToTuningMPPDB(t *testing.T) {
	// All MPPDBs busy with other tenants → line 10: concurrent processing
	// on G₀.
	dbs := []MPPDBStateRef{busyWith("a"), busyWith("b"), busyWith("c")}
	got, err := RouteRef(ref("d"), dbs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("overload routed to %d, want 0", got)
	}
}

func TestRouteAffinityBeatsFreeDB(t *testing.T) {
	// Tenant has a query on MPPDB2; MPPDB0 is free. Affinity wins: the
	// tenant's concurrent queries must share one MPPDB.
	dbs := []MPPDBStateRef{free(), free(), busyWith("t")}
	got, err := RouteRef(ref("t"), dbs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("routed to %d, want 2 (affinity)", got)
	}
}

func TestRouteErrors(t *testing.T) {
	if _, err := RouteRef(ref("t"), nil); err == nil {
		t.Error("routing with no MPPDBs accepted")
	}
}

func TestRouteBusyFlagWithoutRunningMap(t *testing.T) {
	// A loading/hibernating DB can present Busy()==true with no running
	// queries; the router must skip it.
	dbs := []MPPDBStateRef{&fakeDB{busy: true}, free()}
	got, err := RouteRef(ref("t"), dbs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("routed to %d, want 1", got)
	}
}
