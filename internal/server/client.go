package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wlpa/pta"
)

// Client talks to a wlpad daemon. Used by wlpa/wlcheck -remote.
type Client struct {
	// Base is the daemon address: "host:port" or a full http:// URL.
	Base string
	// HTTP overrides the transport (nil = a client with a 5-minute
	// timeout, matching long cold analyses).
	HTTP *http.Client
}

func (c *Client) url(path string) string {
	base := c.Base
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/") + path
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// Analyze submits the sources and returns the response plus the decoded
// snapshot (resp.Snapshot holds the verbatim cached bytes).
func (c *Client) Analyze(ctx context.Context, files map[string]string, entry string, diagnostics bool) (*AnalyzeResponse, *pta.Snapshot, error) {
	body, err := json.Marshal(AnalyzeRequest{Files: files, Entry: entry, Diagnostics: diagnostics})
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/analyze"), bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, nil, fmt.Errorf("wlpad: %s", e.Error)
		}
		return nil, nil, fmt.Errorf("wlpad: HTTP %d", httpResp.StatusCode)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, nil, fmt.Errorf("wlpad: decoding response: %w", err)
	}
	snap, err := pta.DecodeSnapshot(resp.Snapshot)
	if err != nil {
		return nil, nil, err
	}
	return &resp, snap, nil
}

// Query submits a batch of point queries. The first call for an entry
// converges the program (cold); subsequent calls with unchanged sources
// answer from the daemon's warm result.
func (c *Client) Query(ctx context.Context, files map[string]string, entry string, queries []SiteQuery) (*QueryResponse, error) {
	body, err := json.Marshal(QueryRequest{Files: files, Entry: entry, Queries: queries})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/query"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("wlpad: %s", e.Error)
		}
		return nil, fmt.Errorf("wlpad: HTTP %d", httpResp.StatusCode)
	}
	var resp QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("wlpad: decoding response: %w", err)
	}
	return &resp, nil
}

// Healthz probes the daemon's health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/healthz"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("wlpad: healthz HTTP %d", resp.StatusCode)
	}
	return nil
}

// Metrics fetches the daemon's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wlpad: metrics HTTP %d", resp.StatusCode)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
