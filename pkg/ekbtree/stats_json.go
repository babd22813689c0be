package ekbtree

import (
	"encoding/json"
	"fmt"
)

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
