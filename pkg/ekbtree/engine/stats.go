package engine

import (
	"encoding/json"
	"fmt"
)

// Stats describes a tree: shape (key count, node count, height),
// decoded-node cache traffic, and commit-pipeline contention counters since
// Open. Engine.Stats reports one shard; a sharded tree folds its shards' with
// Add, so the counts and counters are SUMS across shards, Height is the
// maximum shard height, and Shards is the shard count. Each shard's shape is
// observed against its own pinned epoch, so per-shard figures are
// individually consistent but the sum is not one cross-shard point in time.
//
// The json tags are the stable wire shape ekbtreed's Stats op emits and its
// clients decode. The omitempty fields are the counters added after the
// first release: left out when zero, so a parser older than a counter sees
// the shape it always did (Shards is zero only on a hand-built value).
type Stats struct {
	// Keys is the number of live entries.
	Keys int `json:"keys"`
	// Nodes is the number of B-tree pages.
	Nodes int `json:"nodes"`
	// Height is the tree height in levels (0 for an empty tree); for a
	// sharded tree, the tallest shard's height.
	Height int `json:"height"`
	// Cache counts decoded-node cache hits, misses, and evictions (a clock
	// over per-page reference counts, index nodes weighted over leaves),
	// summed across shards.
	Cache CacheStats `json:"cache"`
	// Commits is the number of successfully published commit epochs. No-op
	// mutations (e.g. deleting an absent key) publish nothing and are not
	// counted. A sharded Batch.Commit counts once per shard it touched.
	Commits uint64 `json:"commits"`
	// Conflicts is the number of optimistic commit attempts discarded because
	// a concurrent commit invalidated the attempt's read-set. Conflicts are
	// retried internally; callers never observe them as errors.
	Conflicts uint64 `json:"conflicts"`
	// Retries is the number of mutation re-executions. A conflict is the one
	// cause of a re-execution, so it equals Conflicts; a lone writer never
	// retries.
	Retries uint64 `json:"retries"`
	// Shards is the number of shards (1 for an unsharded tree).
	Shards int `json:"shards,omitempty"`
	// CipherEpoch is the newest key epoch any shard is sealing under (the
	// maximum across shards; shards rotate independently).
	CipherEpoch uint32 `json:"cipher_epoch,omitempty"`
	// Seals is the number of page seals issued within each shard's current
	// epoch, summed across shards. It resets to zero as epochs advance.
	Seals uint64 `json:"seals,omitempty"`
	// PagesPendingReseal is the number of live pages still sealed under an
	// epoch older than their shard's current one, summed across shards —
	// the backlog the background rotator is draining. Zero once rotation
	// has converged.
	PagesPendingReseal int `json:"pages_pending_reseal,omitempty"`
	// FileBytes is the total backing-file size, summed across shards.
	FileBytes int64 `json:"file_bytes,omitempty"`
	// LiveBytes is the portion of FileBytes referenced by live pages and
	// store metadata, summed across shards. FileBytes - LiveBytes is the
	// garbage a Vacuum could reclaim.
	LiveBytes int64 `json:"live_bytes,omitempty"`
}

// Add folds one shard's stats into the total s: every field is summed but
// Height and CipherEpoch, which take the maximum.
func (s *Stats) Add(o Stats) {
	s.Keys += o.Keys
	s.Nodes += o.Nodes
	s.Height = max(s.Height, o.Height)
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.Pages += o.Cache.Pages
	s.Commits += o.Commits
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.Shards += o.Shards
	s.CipherEpoch = max(s.CipherEpoch, o.CipherEpoch)
	s.Seals += o.Seals
	s.PagesPendingReseal += o.PagesPendingReseal
	s.FileBytes += o.FileBytes
	s.LiveBytes += o.LiveBytes
}

// UnmarshalJSON decodes into a zero Stats and then assigns it, so a field the
// document omits reads as zero, not as whatever s held before. The omitempty
// fields make that the only safe rule: a poller decoding successive responses
// into one Stats would otherwise keep showing the last non-zero
// PagesPendingReseal after rotation had drained it.
func (s *Stats) UnmarshalJSON(b []byte) error {
	type fields Stats // same tags, no methods: the decode below cannot recurse
	var f fields
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*s = Stats(f)
	return nil
}

// String renders the stats in a compact single-line human-readable form.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"keys=%d nodes=%d height=%d cache{hits=%d misses=%d evictions=%d pages=%d} commits=%d conflicts=%d retries=%d",
		s.Keys, s.Nodes, s.Height,
		s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions, s.Cache.Pages,
		s.Commits, s.Conflicts, s.Retries,
	)
	if s.Shards > 1 {
		out += fmt.Sprintf(" shards=%d", s.Shards)
	}
	if s.CipherEpoch > 0 || s.Seals > 0 || s.PagesPendingReseal > 0 {
		out += fmt.Sprintf(" epoch=%d seals=%d pending_reseal=%d",
			s.CipherEpoch, s.Seals, s.PagesPendingReseal)
	}
	if s.FileBytes > 0 || s.LiveBytes > 0 {
		out += fmt.Sprintf(" file_bytes=%d live_bytes=%d", s.FileBytes, s.LiveBytes)
	}
	return out
}
