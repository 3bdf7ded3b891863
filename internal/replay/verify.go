package replay

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Outcome condenses what a replay left behind once its drain ended, read
// from the report, the deployment and the node pool. Every fault scenario
// judges its runs on it.
type Outcome struct {
	// Dropped counts logged queries no instance accepted.
	Dropped int
	// MinRTTTP is the lowest RT-TTP sampled inside [From, To) across all
	// groups — the §4.2 guarantee metric the plan's P bounds.
	MinRTTTP float64
	// Attainment is the per-query SLA attainment the telemetry SLA account
	// observed; WorstAttainment is its worst tenant's.
	Attainment, WorstAttainment float64
	// SLO is each observed tenant's standing.
	SLO map[string]telemetry.TenantSLO
	// Lifecycles counts recovery lifecycles begun, Recovered those
	// completed and Triaged those that waited in the scarcity triage.
	Lifecycles, Recovered, Triaged int
	// Respreads counts post-restoration re-spread cutovers; Collapsed the
	// multi-instance groups confined to one failure domain (multi-domain
	// pools only).
	Respreads, Collapsed int
	// InFlight counts recoveries still pending; QueuedClaims triage claims
	// still waiting; DownDomains failure domains still down.
	InFlight, QueuedClaims, DownDomains int
	// Slow, Degraded and Quarantined count instances still below full
	// speed, still missing nodes, or still pulled from routing.
	Slow, Degraded, Quarantined int
	// ExpectedActive is the node count the instances own; ActiveNodes,
	// FailedNodes and RepairingNodes are the pool's tallies.
	ExpectedActive, ActiveNodes, FailedNodes, RepairingNodes int
}

// TenantAttainment returns the tenant's SLA attainment (1 when none of its
// queries completed).
func (o *Outcome) TenantAttainment(id string) float64 {
	if s, ok := o.SLO[id]; ok {
		return s.Attainment
	}
	return 1
}

// Inspect reads the outcome of a finished replay. Per-group state is read
// under each group's clock domain, so sharded deployments are safe too.
func Inspect(dep *master.Deployment, rep *Report) Outcome {
	o := Outcome{Dropped: rep.SubmitErrors, MinRTTTP: 1, Attainment: 1, WorstAttainment: 1,
		SLO: make(map[string]telemetry.TenantSLO)}
	for _, samples := range rep.Samples {
		for _, s := range samples {
			if s.At < rep.to && s.RTTTP < o.MinRTTTP {
				o.MinRTTTP = s.RTTTP
			}
		}
	}
	var met, missed int64
	for _, tn := range dep.Telemetry().SLA.Report() {
		o.SLO[tn.Tenant] = tn
		met += tn.Met
		missed += tn.Missed
		if tn.Attainment < o.WorstAttainment {
			o.WorstAttainment = tn.Attainment
		}
	}
	if met+missed > 0 {
		o.Attainment = float64(met) / float64(met+missed)
	}

	pool := dep.Pool()
	for _, g := range dep.Groups() {
		g.Domain().Do(func(*sim.Engine) {
			domains := map[int]bool{}
			for _, inst := range g.Instances {
				o.ExpectedActive += inst.Nodes()
				if inst.Slowdown() != 1 {
					o.Slow++
				}
				if inst.FailedNodes() > 0 {
					o.Degraded++
				}
				for _, d := range pool.OwnerDomains(inst.ID()) {
					domains[d] = true
				}
			}
			if pool.Domains() >= 2 && len(g.Instances) >= 2 && len(domains) < 2 {
				o.Collapsed++
			}
			o.Quarantined += g.Router.Quarantined()
			if rc := g.Recovery; rc != nil {
				o.InFlight += rc.InProgress()
				o.Respreads += rc.Respreads()
				for _, ev := range rc.Events() {
					o.Lifecycles++
					if ev.Recovered() {
						o.Recovered++
					}
					if ev.Triaged {
						o.Triaged++
					}
				}
			}
		})
	}
	if tri := dep.Triage(); tri != nil {
		o.QueuedClaims = len(tri.Queued())
	}
	o.DownDomains = len(pool.DownDomains())
	o.ActiveNodes = pool.CountState(cluster.Active)
	o.FailedNodes = pool.CountState(cluster.Failed)
	o.RepairingNodes = pool.CountState(cluster.Repairing)
	return o
}

// Verify checks the bar every fault scenario shares once the drain is
// over: no query dropped, every failure domain back, every recovery and
// triage claim drained, no instance left slow, degraded or quarantined,
// and a leak-free pool — active nodes match the deployment, nothing stuck
// failed or mid-re-image.
func (o *Outcome) Verify() error {
	switch {
	case o.Dropped != 0:
		return fmt.Errorf("%d queries dropped", o.Dropped)
	case o.DownDomains != 0:
		return fmt.Errorf("%d failure domains still down", o.DownDomains)
	case o.InFlight != 0:
		return fmt.Errorf("%d recoveries still in flight", o.InFlight)
	case o.QueuedClaims != 0:
		return fmt.Errorf("%d triage claims still queued", o.QueuedClaims)
	case o.Slow != 0:
		return fmt.Errorf("%d instances still slow", o.Slow)
	case o.Degraded != 0:
		return fmt.Errorf("%d instances still degraded", o.Degraded)
	case o.Quarantined != 0:
		return fmt.Errorf("%d instances still quarantined", o.Quarantined)
	case o.ActiveNodes != o.ExpectedActive || o.FailedNodes != 0 || o.RepairingNodes != 0:
		return fmt.Errorf("pool leak — active %d (want %d), failed %d, repairing %d",
			o.ActiveNodes, o.ExpectedActive, o.FailedNodes, o.RepairingNodes)
	}
	return nil
}
