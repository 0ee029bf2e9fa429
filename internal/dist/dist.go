// Package dist distributes one convoy query across several convoyd
// shards: the coordinator splits the database's time range into
// overlapping windows (core.PartitionWindows), posts the same database
// bytes to every shard with one window each over the versioned shard RPC
// (POST /v1/shard/query), and merges the label-space partial answers back
// into the exact global answer with core.MergePartials.
//
// The merge happens in label space on purpose: shards and coordinators
// parse the database independently, so dense ObjectIDs are not comparable
// across processes — object labels are the only shared identity. Windows
// overlap by k−1 ticks, which makes the partition → local-mine → merge
// pipeline exact (see internal/core/partition.go for the argument), so a
// coordinator's answer equals a single node's over the same database.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/wire"
)

// ShardError reports one shard's failure during a fan-out. The serving
// layer maps it to 502 bad_gateway: the client's query was fine, a
// backend was not.
type ShardError struct {
	// Shard is the failing shard's base URL.
	Shard string
	// Status is the shard's HTTP status (0 when the request never
	// completed).
	Status int
	// Code is the shard's stable error code, when it answered an envelope.
	Code string
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("dist: shard %s answered %d (%s): %v", e.Shard, e.Status, e.Code, e.Err)
	}
	return fmt.Sprintf("dist: shard %s unreachable: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Client speaks the shard RPC to one convoyd running in -shard mode.
type Client struct {
	// Base is the shard's base URL (scheme://host:port, no trailing slash).
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Query posts the database bytes with the spec (whose From/To carry the
// shard's assigned window) and returns the shard's partial answer. Any
// failure — transport, non-200, malformed body — comes back as a
// *ShardError.
func (c *Client) Query(ctx context.Context, data []byte, spec wire.QuerySpec) (wire.ShardQueryResponse, error) {
	u := c.Base + "/v1/shard/query?" + spec.URLValues().Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
	if err != nil {
		return wire.ShardQueryResponse{}, &ShardError{Shard: c.Base, Err: err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return wire.ShardQueryResponse{}, &ShardError{Shard: c.Base, Err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return wire.ShardQueryResponse{}, &ShardError{Shard: c.Base, Status: resp.StatusCode, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		se := &ShardError{Shard: c.Base, Status: resp.StatusCode}
		var env wire.ErrorJSON
		if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
			se.Code = env.Error.Code
			se.Err = fmt.Errorf("%s", env.Error.Message)
		} else {
			se.Err = fmt.Errorf("%s", bytes.TrimSpace(body))
		}
		return wire.ShardQueryResponse{}, se
	}
	var out wire.ShardQueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return wire.ShardQueryResponse{}, &ShardError{Shard: c.Base, Status: resp.StatusCode, Err: fmt.Errorf("decode shard response: %w", err)}
	}
	if out.V != wire.ShardRPCVersion {
		return wire.ShardQueryResponse{}, &ShardError{Shard: c.Base, Status: resp.StatusCode,
			Err: fmt.Errorf("shard answered RPC v%d, want v%d", out.V, wire.ShardRPCVersion)}
	}
	return out, nil
}

// Coordinator fans one query out over a fixed shard set.
type Coordinator struct {
	// Shards are the shard base URLs; the time range is split into
	// len(Shards) overlapping windows, one per shard.
	Shards []string
	// HTTP is the transport shared by the per-shard clients; nil means
	// http.DefaultClient.
	HTTP *http.Client
}

// Query runs the spec over the database bytes distributed across the
// coordinator's shards: the window [lo, hi] (the database's time range,
// intersected with any client from/to) is partitioned with overlap k−1,
// every shard mines its window concurrently, and the partials merge into
// the exact global answer. The returned responses are the raw per-shard
// answers, window-ordered, for observability.
func (c *Coordinator) Query(ctx context.Context, data []byte, spec wire.QuerySpec, lo, hi model.Tick) ([]wire.ShardQueryResponse, []core.Window, error) {
	if len(c.Shards) == 0 {
		return nil, nil, fmt.Errorf("dist: no shards configured")
	}
	windows := core.PartitionWindows(lo, hi, spec.Params.K, len(c.Shards))
	resps := make([]wire.ShardQueryResponse, len(windows))
	errs := make([]error, len(windows))
	perr := par.For(ctx, len(windows), len(windows), func(i int) {
		s := spec
		from, to := windows[i].Lo, windows[i].Hi
		s.From, s.To = &from, &to
		cl := Client{Base: c.Shards[i%len(c.Shards)], HTTP: c.HTTP}
		resps[i], errs[i] = cl.Query(ctx, data, s)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if perr != nil {
		return nil, nil, perr
	}
	return resps, windows, nil
}

// Merge stitches per-window label-space partial answers into the exact
// global answer. id resolves a label to the coordinator's dense ID and
// label renders it back — both sides of the same database parse — so the
// merged output is ordered exactly like a single-node answer over that
// parse. A label no id can resolve is a protocol violation (the shard
// answered about objects the coordinator's database does not contain).
func Merge(windows []core.Window, parts [][]wire.ConvoyJSON, p core.Params,
	id func(string) (model.ObjectID, bool), label func(model.ObjectID) string) ([]wire.ConvoyJSON, error) {
	if len(parts) != len(windows) {
		return nil, fmt.Errorf("dist: %d partial answers for %d windows", len(parts), len(windows))
	}
	local := make([][]core.Convoy, len(parts))
	for i, part := range parts {
		local[i] = make([]core.Convoy, len(part))
		for j, cj := range part {
			ids := make([]model.ObjectID, len(cj.Objects))
			for n, lb := range cj.Objects {
				oid, ok := id(lb)
				if !ok {
					return nil, fmt.Errorf("dist: shard convoy references unknown object %q", lb)
				}
				ids[n] = oid
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			local[i][j] = core.Convoy{Objects: ids, Start: cj.Start, End: cj.End}
		}
	}
	merged := core.MergePartials(windows, local, p)
	out := make([]wire.ConvoyJSON, len(merged))
	for i, c := range merged {
		out[i] = wire.ConvoyToJSON(c, label)
	}
	return out, nil
}

// SortedLabelIndex builds id/label lookups over the union of labels in
// the partial answers, assigning dense IDs in lexicographic label order.
// It is the database-free fallback for callers that have no parse of
// their own to anchor ordering to.
func SortedLabelIndex(parts [][]wire.ConvoyJSON) (func(string) (model.ObjectID, bool), func(model.ObjectID) string) {
	set := map[string]struct{}{}
	for _, part := range parts {
		for _, c := range part {
			for _, lb := range c.Objects {
				set[lb] = struct{}{}
			}
		}
	}
	labels := make([]string, 0, len(set))
	for lb := range set {
		labels = append(labels, lb)
	}
	sort.Strings(labels)
	ids := make(map[string]model.ObjectID, len(labels))
	for i, lb := range labels {
		ids[lb] = model.ObjectID(i)
	}
	id := func(lb string) (model.ObjectID, bool) { oid, ok := ids[lb]; return oid, ok }
	label := func(oid model.ObjectID) string {
		if int(oid) < 0 || int(oid) >= len(labels) {
			return ""
		}
		return labels[oid]
	}
	return id, label
}
