package obs

import (
	"fmt"
	"io"
	"time"
)

// Report is the /debug/obs JSON body: configuration, the full sample ring,
// detector states, recent anomalies, retained profiles, and live sessions.
type Report struct {
	Enabled       bool             `json:"enabled"`
	SampleEveryMS int64            `json:"sample_every_ms,omitempty"`
	WindowMS      int64            `json:"window_ms,omitempty"`
	RingSlots     int              `json:"ring_slots,omitempty"`
	AnomalyTotal  int64            `json:"anomaly_total"`
	Totals        map[string]int64 `json:"totals,omitempty"`
	Samples       []Sample         `json:"samples,omitempty"`
	Detectors     []DetectorState  `json:"detectors,omitempty"`
	Anomalies     []Anomaly        `json:"anomalies,omitempty"`
	Profiles      []ProfileInfo    `json:"profiles,omitempty"`
	Sessions      []SessionBeat    `json:"sessions,omitempty"`
}

// Report snapshots the monitor for JSON exposition. Nil-safe: a disabled
// monitor reports Enabled=false and nothing else.
func (m *Monitor) Report() Report {
	if m == nil {
		return Report{}
	}
	m.mu.Lock()
	r := Report{
		Enabled:       true,
		SampleEveryMS: m.cfg.SampleEvery.Milliseconds(),
		WindowMS:      m.cfg.Window.Milliseconds(),
		RingSlots:     m.cfg.RingSlots,
		AnomalyTotal:  m.anomalyTotal.Load(),
		Samples:       m.ring.Snapshot(make([]Sample, 0, m.ring.Len())),
		Detectors:     append([]DetectorState(nil), m.states...),
		Anomalies:     m.anomalies.Snapshot(make([]Anomaly, 0, m.anomalies.Len())),
	}
	if len(m.totals) > 0 {
		r.Totals = make(map[string]int64, len(m.totals))
		for k, v := range m.totals {
			r.Totals[k] = v
		}
	}
	m.mu.Unlock()

	r.Profiles = m.profiles.list()

	m.beatMu.Lock()
	for i := range m.beats {
		b := &m.beats[i]
		if !b.active {
			continue
		}
		r.Sessions = append(r.Sessions, SessionBeat{
			ID:           i,
			Label:        b.label,
			Start:        b.start,
			Budget:       b.budget,
			LastProgress: time.Unix(0, b.last.Load()),
			Stalled:      b.stalled,
		})
	}
	m.beatMu.Unlock()
	return r
}

// WriteText renders the monitor state as a terminal report (the ertree -obs
// output). Nil-safe.
func (m *Monitor) WriteText(w io.Writer) {
	if m == nil {
		fmt.Fprintln(w, "obs: disabled")
		return
	}
	r := m.Report()
	fmt.Fprintf(w, "obs: %d/%d samples @%dms, window %dms, %d anomalies\n",
		len(r.Samples), r.RingSlots, r.SampleEveryMS, r.WindowMS, r.AnomalyTotal)
	if len(r.Samples) > 0 {
		s := r.Samples[len(r.Samples)-1]
		fmt.Fprintf(w, "latest: in-flight=%d waiting=%d goroutines=%d heap=%.1fMB\n",
			s.InFlight, s.Waiting, s.Goroutines, float64(s.HeapAlloc)/(1<<20))
		if s.TTLen > 0 {
			hitRate := 0.0
			if s.TTProbes > 0 {
				hitRate = float64(s.TTHits) / float64(s.TTProbes)
			}
			fmt.Fprintf(w, "table:  fill=%d/%d hit-rate=%.2f generations=%d\n",
				s.TTFill, s.TTLen, hitRate, s.TTGenerations)
		}
		o := r.Samples[0]
		span := s.At.Sub(o.At)
		fmt.Fprintf(w, "ring(%s): sessions +%d iterations +%d probes +%d sheds +%d\n",
			span.Round(time.Millisecond),
			s.Sessions-o.Sessions, s.Iterations-o.Iterations, s.Probes-o.Probes,
			s.Sheds()-o.Sheds())
	}
	fmt.Fprintln(w, "detectors:")
	for _, d := range r.Detectors {
		if d.Fires == 0 {
			fmt.Fprintf(w, "  %-17s ok\n", d.Name)
			continue
		}
		fmt.Fprintf(w, "  %-17s FIRED ×%d  last %s  %s\n",
			d.Name, d.Fires, time.UnixMilli(d.LastFireMS).Format(time.TimeOnly), d.LastDetail)
	}
	if len(r.Anomalies) > 0 {
		fmt.Fprintf(w, "anomalies (%d retained):\n", len(r.Anomalies))
		for _, a := range r.Anomalies {
			req := ""
			if a.RequestID != "" {
				req = " request=" + a.RequestID
			}
			fmt.Fprintf(w, "  #%d %s at %s%s profile=%d: %s\n",
				a.ID, a.Kind, a.At.Format(time.TimeOnly), req, a.ProfileID, a.Detail)
		}
	}
	if len(r.Profiles) > 0 {
		fmt.Fprintln(w, "profiles:")
		for _, p := range r.Profiles {
			fmt.Fprintf(w, "  #%d %s at %s goroutine=%dB cpu=%dB (%s)\n",
				p.ID, p.Kind, p.At.Format(time.TimeOnly), p.Goroutine, p.CPU, p.CPUState)
		}
	}
	if len(r.Sessions) > 0 {
		fmt.Fprintf(w, "sessions (%d live):\n", len(r.Sessions))
		now := time.Now()
		for _, b := range r.Sessions {
			flag := ""
			if b.Stalled {
				flag = "  STALLED"
			}
			fmt.Fprintf(w, "  #%d %-14s budget=%s running=%s since-progress=%s%s\n",
				b.ID, b.Label, b.Budget,
				now.Sub(b.Start).Round(time.Millisecond),
				now.Sub(b.LastProgress).Round(time.Millisecond), flag)
		}
	}
}
