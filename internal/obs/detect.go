package obs

import (
	"fmt"
	"time"
)

// View is the input one detector check runs over: the newest sample, the
// oldest sample inside the detector window, the sample nearest the window's
// midpoint (for detectors comparing window halves), and the live session
// heartbeats. Deltas of cumulative Sample fields over [Oldest, Newest] are
// windowed rates.
type View struct {
	Now     time.Time
	Span    time.Duration // Oldest.At → Newest.At
	Samples int           // samples inside the window
	Newest  Sample
	Mid     Sample
	Oldest  Sample
	// Sessions are the live heartbeat slots; valid until the next tick.
	Sessions []SessionBeat

	cfg *Config
	m   *Monitor
}

// Detector is one anomaly check run against every tick's View. Detectors are
// called from the sampler goroutine only, so they may keep unsynchronized
// state. Returning a non-empty slice fires those anomalies (the monitor fills
// ID/At and captures profiles); most checks return at most one.
type Detector interface {
	Name() string
	Check(v *View) []Anomaly
}

// cooldownExempt marks detectors that manage their own re-fire suppression
// (the stall watchdog dedups per session, so a global refractory period would
// hide a second session stalling right after the first).
type cooldownExempt interface{ cooldownExempt() }

// Anomaly kind strings, shared by the detectors, the obs_anomaly_total{kind}
// metric, and the load harness's per-phase assertions.
const (
	KindShedSpike  = "shed-spike"
	KindProbeStorm = "probe-storm"
	KindTTThrash   = "tt-thrash"
	KindStall      = "stall"
)

// DefaultDetectors returns the standard detector set with default thresholds.
func DefaultDetectors() []Detector {
	return []Detector{
		&ShedSpike{MinSheds: 5, MinRate: 1},
		&ProbeStorm{MaxPerIteration: 24, MinIterations: 4},
		&TTThrash{MinSessions: 4, MinHitDrop: 0.10, MinProbes: 256},
		&Stall{},
	}
}

// ShedSpike fires when the admission layer refuses a burst of requests: at
// least MinSheds refusals inside the window, arriving at MinRate or more per
// second. A single shed on an idle server is noise; a sustained rate is the
// server telling its operators it is saturated.
type ShedSpike struct {
	MinSheds int64   // refusals inside the window
	MinRate  float64 // refusals per second
}

func (d *ShedSpike) Name() string { return KindShedSpike }

func (d *ShedSpike) Check(v *View) []Anomaly {
	if v.Samples < 2 || v.Span <= 0 {
		return nil
	}
	n := v.Newest.Sheds() - v.Oldest.Sheds()
	rate := float64(n) / v.Span.Seconds()
	if n < d.MinSheds || rate < d.MinRate {
		return nil
	}
	return []Anomaly{{
		Kind: KindShedSpike,
		Detail: fmt.Sprintf("%d requests shed in %.1fs (%.1f/s; full=%d timeout=%d cancelled=%d)",
			n, v.Span.Seconds(), rate,
			v.Newest.ShedFull-v.Oldest.ShedFull,
			v.Newest.ShedTimeout-v.Oldest.ShedTimeout,
			v.Newest.ShedCancelled-v.Oldest.ShedCancelled),
	}}
}

// ProbeStorm fires when the root drivers' null-window probe traffic runs at
// the bisection rate: MTD(f) converges in a handful of probes per iteration
// when the table feeds it consistent bounds, and an iteration whose probes
// keep contradicting each other (Plaat et al.'s "No" case) ends by bisecting
// its envelope, near driver.ProbeBound probes. Probes-per-iteration near
// that bound across a whole window means the probe drivers are thrashing,
// not converging — usually concurrent table overwrites destroying the bound
// envelope.
type ProbeStorm struct {
	MaxPerIteration float64 // windowed probes/iteration that counts as a storm
	MinIterations   int64   // minimum iterations in the window before judging
}

func (d *ProbeStorm) Name() string { return KindProbeStorm }

func (d *ProbeStorm) Check(v *View) []Anomaly {
	if v.Samples < 2 {
		return nil
	}
	iters := v.Newest.Iterations - v.Oldest.Iterations
	probes := v.Newest.Probes - v.Oldest.Probes
	if iters < d.MinIterations {
		return nil
	}
	per := float64(probes) / float64(iters)
	if per < d.MaxPerIteration {
		return nil
	}
	return []Anomaly{{
		Kind: KindProbeStorm,
		Detail: fmt.Sprintf("%.1f probes/iteration over %.1fs (%d probes, %d iterations; bisection territory)",
			per, v.Span.Seconds(), probes, iters),
	}}
}

// TTThrash fires on generation churn with a falling hit rate: the table aged
// MinSessions times inside the window while the hit rate of the window's
// newer half dropped MinHitDrop below the older half's. Aging alone is
// healthy; aging while hits collapse means the working set no longer fits
// and replacement is evicting entries the searches still need. Aging ticks
// are counted as admitted sessions, not read off the tables' generations:
// each admitted session of a table-backed engine ages its table exactly once,
// and the session count is monotone where a table's uint8 generation wraps
// every 256 sessions.
type TTThrash struct {
	MinSessions int64   // admitted sessions (aging ticks) inside the window
	MinHitDrop  float64 // newer-half hit rate below older-half by this much
	MinProbes   int64   // probes per half before the rates mean anything
}

func (d *TTThrash) Name() string { return KindTTThrash }

func (d *TTThrash) Check(v *View) []Anomaly {
	if v.Samples < 3 {
		return nil
	}
	gens := v.Newest.Sessions - v.Oldest.Sessions
	if gens < d.MinSessions {
		return nil
	}
	oldProbes := v.Mid.TTProbes - v.Oldest.TTProbes
	newProbes := v.Newest.TTProbes - v.Mid.TTProbes
	if oldProbes < d.MinProbes || newProbes < d.MinProbes {
		return nil
	}
	oldRate := float64(v.Mid.TTHits-v.Oldest.TTHits) / float64(oldProbes)
	newRate := float64(v.Newest.TTHits-v.Mid.TTHits) / float64(newProbes)
	if oldRate-newRate < d.MinHitDrop {
		return nil
	}
	return []Anomaly{{
		Kind: KindTTThrash,
		Detail: fmt.Sprintf("tt hit rate fell %.2f→%.2f across %d aging ticks in %.1fs (fill %d/%d)",
			oldRate, newRate, gens, v.Span.Seconds(), v.Newest.TTFill, v.Newest.TTLen),
	}}
}

// Stall is the per-session watchdog: a session that has not completed an
// iteration within StallFactor × its time budget is wedged — the deepening
// loop should either finish an iteration or get cut by its deadline well
// inside that bound. Fires once per session (the slot is flagged), carrying
// the session's correlation label so the warning, the access-log line, and
// the captured profiles share a request id.
type Stall struct{}

func (d *Stall) Name() string { return KindStall }

func (d *Stall) cooldownExempt() {}

func (d *Stall) Check(v *View) []Anomaly {
	var out []Anomaly
	for _, b := range v.Sessions {
		if b.Stalled {
			continue
		}
		budget := b.Budget
		if budget <= 0 {
			budget = v.cfg.StallBudget
		}
		limit := time.Duration(float64(budget) * v.cfg.StallFactor)
		idle := v.Now.Sub(b.LastProgress)
		if idle <= limit {
			continue
		}
		v.m.markStalled(b.ID)
		out = append(out, Anomaly{
			Kind:      KindStall,
			RequestID: b.Label,
			Detail: fmt.Sprintf("session %q has made no iteration progress for %s (budget %s, limit %s)",
				b.Label, idle.Round(time.Millisecond), budget, limit),
		})
	}
	return out
}
