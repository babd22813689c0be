package engine

import (
	"encoding/json"
	"fmt"
)

// Stats describes a tree: shape (key count, node count, height),
// decoded-node cache traffic, the commit count since Open, the cipher
// lifecycle, and the footprint. The shape is observed against one pinned
// epoch.
//
// The json tags are the stable wire shape ekbtreed's Stats op emits and its
// clients decode. The omitempty fields are the counters added after the
// first release: left out when zero, so a parser older than a counter sees
// the shape it always did. A document from a server that still reported a
// "shards" field decodes too: the field is ignored.
type Stats struct {
	// Keys is the number of live entries.
	Keys int `json:"keys"`
	// Nodes is the number of B-tree pages.
	Nodes int `json:"nodes"`
	// Height is the tree height in levels (0 for an empty tree).
	Height int `json:"height"`
	// Cache counts decoded-node cache hits, misses, and evictions (a clock
	// over per-page reference counts, index nodes weighted over leaves).
	Cache CacheStats `json:"cache"`
	// Commits is the number of successfully published commit epochs. No-op
	// mutations (e.g. deleting an absent key) publish nothing, and mutations
	// that queued for the write turn together publish one epoch.
	Commits uint64 `json:"commits"`
	// Conflicts and Retries read 0: writers take turns, so no commit
	// conflicts with another and none is re-executed for one. They are kept
	// so that existing JSON clients go on decoding them.
	Conflicts uint64 `json:"conflicts"`
	Retries   uint64 `json:"retries"`
	// CipherEpoch is the key epoch new pages are sealed under.
	CipherEpoch uint32 `json:"cipher_epoch,omitempty"`
	// Seals is the number of page seals issued within the current epoch. It
	// resets to zero as epochs advance.
	Seals uint64 `json:"seals,omitempty"`
	// PagesPendingReseal is the number of live pages still sealed under an
	// epoch older than the current one — the backlog the background rotator
	// is draining. Zero once rotation has converged.
	PagesPendingReseal int `json:"pages_pending_reseal,omitempty"`
	// FileBytes is the backing-file size.
	FileBytes int64 `json:"file_bytes,omitempty"`
	// LiveBytes is the portion of FileBytes referenced by live pages and
	// store metadata. FileBytes - LiveBytes is the garbage a Vacuum could
	// reclaim.
	LiveBytes int64 `json:"live_bytes,omitempty"`
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
	if s.CipherEpoch > 0 || s.Seals > 0 || s.PagesPendingReseal > 0 {
		out += fmt.Sprintf(" epoch=%d seals=%d pending_reseal=%d",
			s.CipherEpoch, s.Seals, s.PagesPendingReseal)
	}
	if s.FileBytes > 0 || s.LiveBytes > 0 {
		out += fmt.Sprintf(" file_bytes=%d live_bytes=%d", s.FileBytes, s.LiveBytes)
	}
	return out
}
