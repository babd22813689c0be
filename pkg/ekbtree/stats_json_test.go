package ekbtree

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestStatsJSONRoundTrip(t *testing.T) {
	want := Stats{
		Keys: 42, Nodes: 7, Height: 3,
		Cache:   CacheStats{Hits: 100, Misses: 20, Evictions: 5, Pages: 64},
		Commits: 9, Conflicts: 2, Retries: 3,
		CipherEpoch: 2, Seals: 1234, PagesPendingReseal: 11,
		FileBytes: 1 << 20, LiveBytes: 900 << 10,
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// The wire shape is stable snake_case with nested cache counters.
	for _, field := range []string{
		`"keys":42`, `"nodes":7`, `"height":3`, `"hits":100`, `"misses":20`,
		`"evictions":5`, `"pages":64`, `"commits":9`, `"conflicts":2`, `"retries":3`,
		`"cipher_epoch":2`, `"seals":1234`, `"pages_pending_reseal":11`,
		`"file_bytes":1048576`, `"live_bytes":921600`,
	} {
		if !strings.Contains(string(b), field) {
			t.Errorf("marshaled stats %s missing %s", b, field)
		}
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestStatsJSONFromLiveTree(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x31}, 32)})
	defer tr.Close()
	for _, k := range []string{"a", "b", "c"} {
		if err := tr.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("live round trip: got %+v, want %+v", got, want)
	}
}

// TestStatsJSONShardedRoundTrip pins the sharded aggregation through the
// JSON codec: a 4-shard tree reports summed counters, Shards=4 appears on
// the wire, and the whole struct survives the round trip.
func TestStatsJSONShardedRoundTrip(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x32}, 32), Shards: 4})
	defer tr.Close()
	for i := 0; i < 64; i++ {
		if err := tr.Put([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	want, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", want.Shards)
	}
	if want.Keys != 64 {
		t.Fatalf("sharded Stats.Keys = %d, want the sum 64", want.Keys)
	}
	if want.Commits < 64 {
		t.Fatalf("sharded Stats.Commits = %d, want >= 64 (summed across shards)", want.Commits)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"shards":4`) {
		t.Errorf("marshaled sharded stats %s missing \"shards\":4", b)
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded round trip: got %+v, want %+v", got, want)
	}
}

// TestStatsJSONAbsentFieldsReset pins what decoding into a Stats that already
// holds values does with fields the document leaves out: they read as zero.
// The optional counters are omitted when zero, so a caller polling into one
// Stats must not keep seeing the last non-zero backlog after it drained.
func TestStatsJSONAbsentFieldsReset(t *testing.T) {
	got := Stats{
		Keys: 1, Nodes: 1, Height: 1, Cache: CacheStats{Hits: 9, Pages: 9},
		Commits: 9, Shards: 3, CipherEpoch: 2, Seals: 99, PagesPendingReseal: 11,
		FileBytes: 4096, LiveBytes: 2048,
	}
	doc := `{"keys":5,"nodes":2,"height":1,"cache":{"hits":1,"misses":0,"evictions":0,"pages":2},"commits":6,"conflicts":0,"retries":0}`
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatal(err)
	}
	want := Stats{Keys: 5, Nodes: 2, Height: 1, Cache: CacheStats{Hits: 1, Pages: 2}, Commits: 6}
	if got != want {
		t.Fatalf("decode over a non-zero Stats: got %+v, want %+v", got, want)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Keys: 1, Nodes: 2, Height: 3, Commits: 4}
	str := s.String()
	for _, part := range []string{"keys=1", "nodes=2", "height=3", "commits=4", "cache{"} {
		if !strings.Contains(str, part) {
			t.Errorf("String() = %q missing %q", str, part)
		}
	}
	// Epoch fields only render once the epoch machinery has state; a tree
	// that has sealed nothing keeps its all-zero stats out of the string.
	if strings.Contains(str, "epoch=") {
		t.Errorf("String() = %q shows epoch state for a tree with none", str)
	}
	// Footprint fields only render for stores that measure one; the
	// in-memory backend's zeros stay out of the string.
	if strings.Contains(str, "file_bytes=") {
		t.Errorf("String() = %q shows footprint for an in-memory tree", str)
	}
	s = Stats{Keys: 1, CipherEpoch: 3, Seals: 17, PagesPendingReseal: 2}
	str = s.String()
	for _, part := range []string{"epoch=3", "seals=17", "pending_reseal=2"} {
		if !strings.Contains(str, part) {
			t.Errorf("String() = %q missing %q", str, part)
		}
	}
	s = Stats{Keys: 1, FileBytes: 4096, LiveBytes: 2048}
	str = s.String()
	for _, part := range []string{"file_bytes=4096", "live_bytes=2048"} {
		if !strings.Contains(str, part) {
			t.Errorf("String() = %q missing %q", str, part)
		}
	}
}
