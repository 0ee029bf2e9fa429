package wire

// ShardRPCVersion is the coordinator↔shard protocol version, carried as
// ?v= on POST /v1/shard/query. A shard rejects other versions with 400 so
// a mixed-version fleet fails loudly instead of merging garbage.
const ShardRPCVersion = 1

// ShardQueryResponse is the body a shard answers on POST /v1/shard/query:
// the exact convoy answer of its assigned time window, in label space
// (object labels, not dense IDs — shards and coordinators parse the
// database independently and must not assume a shared ID assignment).
type ShardQueryResponse struct {
	// V echoes ShardRPCVersion.
	V int `json:"v"`
	// From and To echo the inclusive window this shard mined.
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Convoys is the window's maximal answer set.
	Convoys []ConvoyJSON `json:"convoys"`
	// Digest identifies the database the shard mined (cache key material).
	Digest string `json:"digest"`
	// Algo echoes the resolved algorithm, for sanity checking.
	Algo string `json:"algo"`
	// Cache reports whether the shard answered from its cache.
	Cache bool `json:"cache"`
	// ElapsedMS is the shard-side wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}
