package ekbtree

import (
	"encoding/json"
	"fmt"
)

// statsJSON is the stable wire shape of Stats: snake_case field names, cache
// counters nested. The ekbtreed Stats op and the load driver emit exactly
// this shape, so tooling on both sides of the wire shares one schema.
type statsJSON struct {
	Keys      int            `json:"keys"`
	Nodes     int            `json:"nodes"`
	Height    int            `json:"height"`
	Cache     cacheStatsJSON `json:"cache"`
	Commits   uint64         `json:"commits"`
	Conflicts uint64         `json:"conflicts"`
	Retries   uint64         `json:"retries"`
	// Shards is omitted when zero (a hand-built Stats value); a live tree
	// always reports >= 1. Pre-sharding parsers that don't know the field
	// simply ignore it.
	Shards int `json:"shards,omitempty"`
	// Cipher-lifecycle counters, omitted when zero so pre-epoch parsers see
	// the previous shape unchanged.
	CipherEpoch        uint32 `json:"cipher_epoch,omitempty"`
	Seals              uint64 `json:"seals,omitempty"`
	PagesPendingReseal int    `json:"pages_pending_reseal,omitempty"`
	// Physical-footprint gauges, omitted when zero (in-memory trees and
	// pre-vacuum parsers see the previous shape unchanged).
	FileBytes int64 `json:"file_bytes,omitempty"`
	LiveBytes int64 `json:"live_bytes,omitempty"`
}

type cacheStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Pages     int    `json:"pages"`
}

// MarshalJSON renders the stats in their stable snake_case wire shape.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		Keys: s.Keys, Nodes: s.Nodes, Height: s.Height,
		Cache: cacheStatsJSON{
			Hits: s.Cache.Hits, Misses: s.Cache.Misses,
			Evictions: s.Cache.Evictions, Pages: s.Cache.Pages,
		},
		Commits: s.Commits, Conflicts: s.Conflicts, Retries: s.Retries,
		Shards:      s.Shards,
		CipherEpoch: s.CipherEpoch, Seals: s.Seals,
		PagesPendingReseal: s.PagesPendingReseal,
		FileBytes:          s.FileBytes, LiveBytes: s.LiveBytes,
	})
}

// UnmarshalJSON parses the shape MarshalJSON produces, so Stats round-trips
// through its own JSON (the wire client decodes a server's Stats response
// straight back into this type).
func (s *Stats) UnmarshalJSON(b []byte) error {
	var j statsJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Stats{
		Keys: j.Keys, Nodes: j.Nodes, Height: j.Height,
		Cache: CacheStats{
			Hits: j.Cache.Hits, Misses: j.Cache.Misses,
			Evictions: j.Cache.Evictions, Pages: j.Cache.Pages,
		},
		Commits: j.Commits, Conflicts: j.Conflicts, Retries: j.Retries,
		Shards:      j.Shards,
		CipherEpoch: j.CipherEpoch, Seals: j.Seals,
		PagesPendingReseal: j.PagesPendingReseal,
		FileBytes:          j.FileBytes, LiveBytes: j.LiveBytes,
	}
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
