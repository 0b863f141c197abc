// Fleet plane of the HTTP API: member lifecycle status and operator drains
// (see internal/fleet). Mounted by WithFleet:
//
//	GET  /v1/unify/fleet                  -> FleetInfo (per-domain states + counters)
//	POST /v1/unify/fleet/{domain}/drain   -> DrainResult (evict + failover, blocking)
package api

import (
	"context"
	"net/http"
	"net/url"

	"github.com/unify-repro/escape/internal/fleet"
)

// FleetInfo is the payload of GET /v1/unify/fleet and the fleet section of
// StatsDoc.
type FleetInfo struct {
	Layer   string               `json:"layer"`
	Domains []fleet.DomainStatus `json:"domains"`
	Stats   fleet.Stats          `json:"stats"`
}

// DrainResult is the payload of POST /v1/unify/fleet/{domain}/drain: the drain
// blocks until the eviction and every re-embedding attempt finished, so the
// result is final, not a progress snapshot.
type DrainResult struct {
	Domain string `json:"domain"`
	Shard  string `json:"shard"`
	// Displaced lists the services the detach evicted; Rehomed counts how
	// many of them were re-embedded onto surviving domains.
	Displaced []string `json:"displaced"`
	Rehomed   int      `json:"rehomed"`
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, FleetInfo{
		Layer:   s.layer.ID(),
		Domains: s.fleet.Status(),
		Stats:   s.fleet.Stats(),
	})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("domain")
	report, err := s.fleet.Drain(r.Context(), name)
	if err != nil {
		s.httpError(w, err)
		return
	}
	result := DrainResult{Domain: report.Child, Shard: report.Shard, Displaced: []string{}}
	for _, ds := range report.Displaced {
		result.Displaced = append(result.Displaced, ds.ServiceID)
	}
	for _, st := range s.fleet.Status() {
		if st.Domain == name {
			result.Rehomed = st.ServicesRehomed
		}
	}
	s.writeJSON(w, http.StatusOK, result)
}

// FleetStatus fetches the remote fleet's member states and counters.
func (c *Client) FleetStatus(ctx context.Context) (FleetInfo, error) {
	var info FleetInfo
	err := c.getJSON(ctx, unifyRoot+"/fleet", &info)
	return info, err
}

// Drain evicts a domain from the remote fleet and waits for the failover to
// finish (bounded only by ctx: re-embedding displaced services can take as
// long as the installs it implies).
func (c *Client) Drain(ctx context.Context, domainName string) (DrainResult, error) {
	req, err := c.newRequest(ctx, http.MethodPost,
		unifyRoot+"/fleet/"+url.PathEscape(domainName)+"/drain", nil)
	if err != nil {
		return DrainResult{}, err
	}
	resp, err := c.long.Do(req)
	if err != nil {
		return DrainResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return DrainResult{}, remoteError(resp)
	}
	var result DrainResult
	return result, decodeJSONBody(resp, &result)
}

// Ping implements the fleet prober's lightweight liveness check against a
// remote layer: a bare /healthz round-trip, much cheaper than fetching a
// full view. A fleet controller probing an attached api.Client uses this
// (see fleet.Pinger).
func (c *Client) Ping(ctx context.Context) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	return nil
}
