package serve

import (
	"net/http"
	"strconv"
	"strings"

	"ertree/internal/obs"
)

// newObsMonitor builds the server's self-monitor when Config.ObsSample
// enables it, wired to the shared telemetry registry (obs_anomaly_total lands
// on the same /metrics page as everything else) and the server's structured
// logger (anomaly warnings carry request-id correlation into the same stream
// as the access log).
func newObsMonitor(cfg Config, s *Server) *obs.Monitor {
	if cfg.ObsSample <= 0 {
		return nil
	}
	return obs.New(obs.Config{
		SampleEvery: cfg.ObsSample,
		RingSlots:   cfg.ObsRing,
		Logger:      s.log,
		Registry:    s.reg,
		Detectors:   cfg.ObsDetectors,
	})
}

// obsSample is the monitor's gauge source and /healthz's reading: every
// engine's AddSample, summed — the table gauges sum across the per-game
// tables, so fill/hit-rate deltas describe the server's whole transposition
// footprint. The engines share one slot pool, so each sets the same InFlight.
func (s *Server) obsSample(sm *obs.Sample) {
	for _, e := range s.engines {
		e.AddSample(sm)
	}
}

// handleDebugObs serves the self-monitor's full JSON state: the sample ring,
// detector states, recent anomalies, retained profiles, and live sessions.
// With obs disabled it answers {"enabled": false} so pollers (erload) can
// tell "no anomalies" from "nobody watching".
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	report := s.obs.Report()
	for i := range report.Profiles {
		report.Profiles[i].URL = profileURL(report.Profiles[i].ID)
	}
	s.writeJSON(w, http.StatusOK, report)
}

func profileURL(id int64) string {
	return "/debug/obs/profiles/" + strconv.FormatInt(id, 10)
}

// handleObsProfiles lists the retained captures (GET /debug/obs/profiles) and
// serves raw pprof bytes (GET /debug/obs/profiles/<id>?type=goroutine|cpu)
// ready for `go tool pprof`.
func (s *Server) handleObsProfiles(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/debug/obs/profiles")
	rest = strings.Trim(rest, "/")
	if rest == "" {
		infos := s.obs.Profiles()
		for i := range infos {
			infos[i].URL = profileURL(infos[i].ID)
		}
		s.writeJSON(w, http.StatusOK, struct {
			Profiles []obs.ProfileInfo `json:"profiles"`
		}{Profiles: infos})
		return
	}
	id, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad profile id %q", rest)
		return
	}
	typ := firstValue(r.URL.Query(), "type")
	b, ok := s.obs.Profile(id, typ)
	if !ok {
		s.fail(w, http.StatusNotFound, "no retained %s profile %d (captures are evicted oldest-first; see /debug/obs/profiles)",
			orDefault(typ, "goroutine"), id)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		"attachment; filename=obs-"+rest+"-"+orDefault(typ, "goroutine")+".pprof")
	_, _ = w.Write(b)
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
