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
	// The wire shape is stable snake_case with nested cache counters, and
	// every field is pinned: a tree has no "shards" to report.
	const shape = `{"keys":42,"nodes":7,"height":3,` +
		`"cache":{"hits":100,"misses":20,"evictions":5,"pages":64},` +
		`"commits":9,"conflicts":2,"retries":3,` +
		`"cipher_epoch":2,"seals":1234,"pages_pending_reseal":11,` +
		`"file_bytes":1048576,"live_bytes":921600}`
	if string(b) != shape {
		t.Errorf("marshaled stats\n%s\nwant\n%s", b, shape)
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

// TestStatsJSONAbsentFieldsReset pins what decoding into a Stats that already
// holds values does with fields the document leaves out: they read as zero.
// The optional counters are omitted when zero, so a caller polling into one
// Stats must not keep seeing the last non-zero backlog after it drained. A
// document from an older server, which reported a range-sharded tree's shard
// count, decodes the same way: the field it no longer has is ignored.
func TestStatsJSONAbsentFieldsReset(t *testing.T) {
	for _, doc := range []string{
		`{"keys":5,"nodes":2,"height":1,"cache":{"hits":1,"misses":0,"evictions":0,"pages":2},"commits":6,"conflicts":0,"retries":0}`,
		`{"keys":5,"nodes":2,"height":1,"cache":{"hits":1,"misses":0,"evictions":0,"pages":2},"commits":6,"conflicts":0,"retries":0,"shards":3}`,
	} {
		got := Stats{
			Keys: 1, Nodes: 1, Height: 1, Cache: CacheStats{Hits: 9, Pages: 9},
			Commits: 9, CipherEpoch: 2, Seals: 99, PagesPendingReseal: 11,
			FileBytes: 4096, LiveBytes: 2048,
		}
		if err := json.Unmarshal([]byte(doc), &got); err != nil {
			t.Fatalf("decode %s: %v", doc, err)
		}
		want := Stats{Keys: 5, Nodes: 2, Height: 1, Cache: CacheStats{Hits: 1, Pages: 2}, Commits: 6}
		if got != want {
			t.Fatalf("decode %s over a non-zero Stats: got %+v, want %+v", doc, got, want)
		}
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
	// Footprint fields only render when set; zeros stay out of the string.
	if strings.Contains(str, "file_bytes=") {
		t.Errorf("String() = %q shows a footprint the stats do not hold", str)
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
