package openstack

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/dataplane"
	"github.com/unify-repro/escape/internal/nffg"
)

// Domain is the OpenStack technology domain: the UNIFY-conform local
// orchestrator whose programmer realizes deltas as Nova and ODL REST calls
// against the cloud's API.
type Domain struct {
	*core.LocalOrchestrator
	cloud  *Cloud
	client *http.Client
	base   string
}

// Config assembles the domain.
type Config struct {
	// ID names the domain (default "openstack").
	ID string
	// Substrate describes the DC fabric + SAPs.
	Substrate *nffg.NFFG
	// Engine is the shared dataplane engine.
	Engine *dataplane.Engine
	// Borders lists inter-domain SAPs.
	Borders map[nffg.ID]bool
	// Virtualizer selects the exported view (default SingleBiSBiS).
	Virtualizer core.Virtualizer
}

// New builds the cloud and its local orchestrator.
func New(cfg Config) (*Domain, error) {
	if cfg.ID == "" {
		cfg.ID = "openstack"
	}
	if cfg.Engine == nil {
		cfg.Engine = dataplane.NewEngine()
	}
	cloud, err := NewCloud(cfg.Engine, cfg.Substrate, cfg.Borders)
	if err != nil {
		return nil, err
	}
	d := &Domain{cloud: cloud, client: &http.Client{}, base: cloud.BaseURL()}
	lo, err := core.NewLocalOrchestrator(core.LocalConfig{
		ID:          cfg.ID,
		Substrate:   cfg.Substrate,
		Virtualizer: cfg.Virtualizer,
		Programmer:  core.ProgrammerFunc(d.commit),
	})
	if err != nil {
		cloud.Close()
		return nil, err
	}
	d.LocalOrchestrator = lo
	return d, nil
}

// Cloud exposes the simulated cloud (tests, demo traffic).
func (d *Domain) Cloud() *Cloud { return d.cloud }

// Close stops the cloud API.
func (d *Domain) Close() { d.cloud.Close() }

// commit realizes a delta through the REST APIs: its deletions first, then
// its additions. A DELETE answered 404 counts as done: an undo deletes what
// a failed delta may never have created.
func (d *Domain) commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error {
	for infra, rules := range delta.DelRules {
		for _, f := range rules {
			if err := d.do(ctx, http.MethodDelete, flowPath(infra, f.ID), nil, http.StatusNoContent, http.StatusNotFound); err != nil {
				return fmt.Errorf("openstack: del flow %s: %w", f.ID, err)
			}
		}
	}
	for _, id := range delta.DelNFs {
		if err := d.do(ctx, http.MethodDelete, "/v2.1/servers/"+string(id), nil, http.StatusNoContent, http.StatusNotFound); err != nil {
			return fmt.Errorf("openstack: delete server %s: %w", id, err)
		}
	}
	for _, nf := range delta.AddNFs {
		var portIDs []string
		for _, p := range nf.Ports {
			portIDs = append(portIDs, p.ID)
		}
		var req createServerReq
		req.Server.Name = string(nf.ID)
		req.Server.Flavor = flavorFor(nf.Demand)
		req.Server.Metadata = map[string]string{
			"nf_type": nf.FunctionalType,
			"nf_id":   string(nf.ID),
			"host":    string(nf.Host),
			"ports":   strings.Join(portIDs, ","),
		}
		if err := d.do(ctx, http.MethodPost, "/v2.1/servers", req, http.StatusCreated); err != nil {
			return fmt.Errorf("openstack: boot %s: %w", nf.ID, err)
		}
	}
	for infra, rules := range delta.AddRules {
		for _, f := range rules {
			fr := FlowRule{
				Priority: f.Priority,
				InPort:   f.Match.InPort.String(),
				Tag:      f.Match.Tag,
				Untagged: f.Match.MatchUntagged,
				Dst:      string(f.Match.DstSAP),
				Output:   f.Action.Output.String(),
				PushTag:  f.Action.PushTag,
				PopTag:   f.Action.PopTag,
			}
			if err := d.do(ctx, http.MethodPut, flowPath(infra, f.ID), fr, http.StatusOK); err != nil {
				return fmt.Errorf("openstack: put flow %s: %w", f.ID, err)
			}
		}
	}
	return nil
}

// flowPath is the ODL REST path of one flow on one switch.
func flowPath(infra nffg.ID, rule string) string {
	return fmt.Sprintf("/restconf/config/flows/%s/%s", infra, rule)
}

// do makes one REST call under the delta's ctx, so a canceled delta stops at
// its next call, and fails unless the response has one of the want statuses.
// The response body is drained before Close: a drained body hands the
// keep-alive connection back to the pool for the next call.
func (d *Domain) do(ctx context.Context, method, path string, body any, want ...int) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if !slices.Contains(want, resp.StatusCode) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want[0], msg)
	}
	return nil
}

// flavorFor picks the smallest flavor covering the demand.
func flavorFor(r nffg.Resources) string {
	switch {
	case r.CPU <= 1 && r.Mem <= 2048:
		return "m1.small"
	case r.CPU <= 2 && r.Mem <= 4096:
		return "m1.medium"
	default:
		return "m1.large"
	}
}
