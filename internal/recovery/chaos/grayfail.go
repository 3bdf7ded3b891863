package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/master"
	"repro/internal/sim"
)

// GrayFailConfig parameterizes a seeded fail-slow storm: a schedule of
// fractional slowdown episodes against one group.
type GrayFailConfig struct {
	// Seed fixes the schedule's randomness (instance choice, factor
	// jitter).
	Seed int64
	// Episodes is how many fail-slow episodes to schedule (default 3). They
	// are spaced evenly through the window, one instance each.
	Episodes int
	// Factor is the episode depth — the fraction of nominal speed a gray
	// instance drops to (default 0.3; jittered ±0.05 by the seed).
	Factor float64
	// Duration is each episode's length (default 2 h, clamped to the
	// inter-episode spacing so a same-instance pair can never overlap).
	Duration time.Duration
}

// DefaultGrayFailConfig returns a three-episode storm cycling through the
// stuck, gradual, and flapping profiles.
func DefaultGrayFailConfig() GrayFailConfig {
	return GrayFailConfig{
		Seed:     1,
		Episodes: 3,
		Factor:   0.3,
		Duration: 2 * time.Hour,
	}
}

// BuildSlowdowns derives the fail-slow schedule for the target group over
// the window [from, to): Episodes episodes spaced evenly through it, each
// hitting a seeded instance with the stuck, gradual, and flapping profiles
// in rotation. It is deterministic in (group shape, window, cfg) and always
// returns a schedule that passes ValidateSlowdowns.
func BuildSlowdowns(target *master.DeployedGroup, from, to sim.Time, cfg GrayFailConfig) (Slowdowns, error) {
	if to <= from {
		return nil, fmt.Errorf("grayfail: window [%v,%v)", from, to)
	}
	if cfg.Episodes < 1 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("grayfail: Episodes=%d Duration=%v", cfg.Episodes, cfg.Duration)
	}
	if cfg.Factor <= 0.05 || cfg.Factor >= 0.95 {
		return nil, fmt.Errorf("grayfail: Factor=%v outside (0.05,0.95)", cfg.Factor)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	profiles := []SlowProfile{ProfileStuck, ProfileGradual, ProfileFlapping}
	spacing := (to - from) / sim.Time(cfg.Episodes+1)
	dur := sim.Duration(cfg.Duration)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	out := make(Slowdowns, 0, cfg.Episodes)
	for i := 0; i < cfg.Episodes; i++ {
		factor := cfg.Factor + (rng.Float64()-0.5)*0.1
		out = append(out, Slowdown{
			At:       from + sim.Time(i+1)*spacing - dur/2,
			Duration: time.Duration(dur),
			Group:    target.Plan.ID,
			Instance: rng.Intn(len(target.Instances)),
			Profile:  profiles[i%len(profiles)],
			Factor:   factor,
			Steps:    4,
			Period:   time.Duration(dur / 6),
		})
	}
	return out, nil
}
