package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// newGroup hand-builds a two-MPPDB group on the engine, mirroring the
// Deployment Master's wiring (master itself can't be imported — it depends
// on this package).
func newGroup(t *testing.T, eng *sim.Engine, id string, tenantIDs ...string) *GroupRuntime {
	t.Helper()
	members := make([]*tenant.Tenant, 0, len(tenantIDs))
	for _, tid := range tenantIDs {
		members = append(members, &tenant.Tenant{
			ID: tid, Nodes: 2, DataGB: 10, Suite: queries.TPCH, Users: 1,
		})
	}
	in := tenant.NewInterner()
	var insts []*mppdb.Instance
	for i := 0; i < 2; i++ {
		inst := mppdb.NewInterned(eng, fmt.Sprintf("%s-db%d", id, i), 2, in)
		for _, m := range members {
			inst.DeployTenant(m.ID, m.DataGB)
		}
		insts = append(insts, inst)
	}
	mon, err := monitor.NewGroup(eng, id, 2, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.NewGroup(eng, id, insts, members, mon)
	if err != nil {
		t.Fatal(err)
	}
	return &GroupRuntime{
		Plan:      advisor.PlannedGroup{ID: id, TenantIDs: tenantIDs},
		Instances: insts,
		Router:    rt,
		Monitor:   mon,
		Members:   members,
	}
}

func q1(t *testing.T) *queries.Class {
	t.Helper()
	c, ok := queries.Default().ByID("TPCH-Q1")
	if !ok {
		t.Fatal("TPCH-Q1 missing from default catalog")
	}
	return c
}

func TestGroupRuntimeSubmitStatsRecords(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1", "t2")
	g.Bind(sim.NewDomain(eng))

	db, err := g.SubmitAt(sim.Second, "t1", q1(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(db, "TG-0001-db") {
		t.Errorf("routed to %q", db)
	}
	st := g.Stats()
	if st.Group != "TG-0001" || st.Members != 2 {
		t.Errorf("stats identity: %+v", st)
	}
	if st.Routed != 1 {
		t.Errorf("routed = %d, want 1", st.Routed)
	}
	if len(st.Instances) != 2 {
		t.Fatalf("%d instance snapshots", len(st.Instances))
	}
	// The query is still running somewhere in the group.
	running := 0
	for _, is := range st.Instances {
		running += is.Running
	}
	if running != 1 {
		t.Errorf("%d running, want 1", running)
	}

	// StatsAt drives the clock; the query finishes well within a day.
	st = g.StatsAt(sim.Day)
	if g.Now() != sim.Day {
		t.Errorf("Now = %v after StatsAt(Day)", g.Now())
	}
	recs := g.RecordsAt(sim.Day)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	if recs[0].Tenant != "t1" || recs[0].MPPDB != db {
		t.Errorf("record %+v", recs[0])
	}
	if st.SLAAttainment != 1 {
		t.Errorf("attainment = %v", st.SLAAttainment)
	}
}

func TestGroupRuntimeSubmitUnknownTenant(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	g.Bind(sim.NewDomain(eng))
	if _, err := g.SubmitAt(sim.Second, "ghost", q1(t), 0); err == nil {
		t.Error("submit for non-member accepted")
	}
}

func TestPlaneShardedIndexAndClocks(t *testing.T) {
	p := NewPlane(nil, true)
	var groups []*GroupRuntime
	for i := 0; i < 3; i++ {
		eng := sim.NewEngine()
		g := newGroup(t, eng, fmt.Sprintf("TG-%04d", i), fmt.Sprintf("t%d", i))
		g.Bind(sim.NewDomain(eng))
		p.Add(g)
		groups = append(groups, g)
	}
	if !p.Sharded() {
		t.Error("plane not sharded")
	}
	if len(p.Domains()) != 3 {
		t.Fatalf("%d domains, want 3", len(p.Domains()))
	}
	if p.Tenants() != 3 {
		t.Errorf("%d tenants indexed", p.Tenants())
	}
	for i, g := range groups {
		got, ok := p.ForTenant(fmt.Sprintf("t%d", i))
		if !ok || got != g {
			t.Errorf("ForTenant(t%d) = %v, %v", i, got, ok)
		}
	}
	if _, ok := p.ForTenant("ghost"); ok {
		t.Error("ghost tenant resolved")
	}
	// Clocks are independent; Plane.Now is the max.
	groups[1].AdvanceTo(5 * sim.Minute)
	if groups[0].Now() != 0 || groups[1].Now() != 5*sim.Minute {
		t.Errorf("clocks coupled: %v %v", groups[0].Now(), groups[1].Now())
	}
	if p.Now() != 5*sim.Minute {
		t.Errorf("plane Now = %v", p.Now())
	}
	p.AdvanceAll(sim.Hour)
	for i, g := range groups {
		if g.Now() != sim.Hour {
			t.Errorf("group %d at %v after AdvanceAll", i, g.Now())
		}
	}
}

func TestPlaneSharedDomainDedup(t *testing.T) {
	eng := sim.NewEngine()
	dom := sim.NewDomain(eng)
	p := NewPlane(nil, false)
	for i := 0; i < 3; i++ {
		g := newGroup(t, eng, fmt.Sprintf("TG-%04d", i), fmt.Sprintf("t%d", i))
		g.Bind(dom)
		p.Add(g)
	}
	if p.Sharded() {
		t.Error("plane reports sharded")
	}
	if len(p.Domains()) != 1 {
		t.Fatalf("%d domains, want 1 (shared)", len(p.Domains()))
	}
}

func TestPlaneRecordsGroupOrder(t *testing.T) {
	p := NewPlane(nil, true)
	class := q1(t)
	for i := 0; i < 2; i++ {
		eng := sim.NewEngine()
		g := newGroup(t, eng, fmt.Sprintf("TG-%04d", i), fmt.Sprintf("t%d", i))
		g.Bind(sim.NewDomain(eng))
		p.Add(g)
	}
	// Submit in reverse group order; Records still returns group order.
	if _, err := p.Groups()[1].SubmitAt(sim.Second, "t1", class, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Groups()[0].SubmitAt(2*sim.Second, "t0", class, 0); err != nil {
		t.Fatal(err)
	}
	p.AdvanceAll(sim.Day)
	recs := p.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Tenant != "t0" || recs[1].Tenant != "t1" {
		t.Errorf("records out of group order: %s, %s", recs[0].Tenant, recs[1].Tenant)
	}
}

// TestGroupRuntimeConcurrentSubmits exercises the locked methods from many
// goroutines — meaningful under -race.
func TestGroupRuntimeConcurrentSubmits(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1", "t2", "t3", "t4")
	g.Bind(sim.NewDomain(eng))
	class := q1(t)
	var wg sync.WaitGroup
	const per = 25
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := fmt.Sprintf("t%d", w+1)
			for i := 0; i < per; i++ {
				at := sim.Time(i+1) * sim.Second
				if _, err := g.SubmitAt(at, tid, class, 0); err != nil {
					t.Errorf("submit %s: %v", tid, err)
					return
				}
				_ = g.Stats()
			}
		}()
	}
	wg.Wait()
	st := g.StatsAt(sim.Day)
	if st.Routed != 4*per {
		t.Errorf("routed = %d, want %d", st.Routed, 4*per)
	}
	if got := len(g.RecordsAt(sim.Day)); got != 4*per {
		t.Errorf("%d records, want %d", got, 4*per)
	}
}
