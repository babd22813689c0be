package ekbtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestShardedRoundTripAcrossReopen is the end-to-end sharded persistence
// test: a 4-shard file-backed tree survives close and reopen with identical
// content, the cross-shard cursor yields one globally ordered stream, every shard
// actually holds data, and the on-disk layout is the documented per-shard
// one (Path itself is never created).
func TestShardedRoundTripAcrossReopen(t *testing.T) {
	master := bytes.Repeat([]byte{0x51}, 32)
	path := filepath.Join(t.TempDir(), "tree.ekb")
	opts := Options{MasterKey: master, Order: 8, Path: path, Shards: 4}

	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A batch spanning shards, so the fan-out path feeds the persisted state.
	b := tr.NewBatch()
	for i := 0; i < 100; i += 2 {
		if err := b.Delete([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	want := scanAll(t, tr)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.Keys != len(want) {
		t.Fatalf("Stats.Keys = %d, want %d", st.Keys, len(want))
	}
	// 400 HMAC-substituted keys over 4 shards: every shard holds some.
	for i, g := range tr.shards {
		s, err := g.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if s.Keys == 0 {
			t.Errorf("shard %d is empty after 400 routed puts", i)
		}
	}
	// The cross-shard cursor is one globally ordered stream.
	var prev []byte
	c := tr.Cursor()
	for ok := c.First(); ok; ok = c.Next() {
		if prev != nil && bytes.Compare(c.Key(), prev) <= 0 {
			t.Fatalf("cross-shard cursor out of order: %x after %x", c.Key(), prev)
		}
		prev = append(prev[:0], c.Key()...)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("sharded tree created %s itself; want only per-shard files", path)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(shardPath(path, i, 4)); err != nil {
			t.Errorf("shard file %d missing: %v", i, err)
		}
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := scanAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened sharded tree has %d entries, want %d", len(got), len(want))
	}
	if v, ok, err := re.Get([]byte("key-151")); err != nil || !ok || string(v) != "val-151" {
		t.Fatalf("reopened Get = (%q, %v, %v)", v, ok, err)
	}
}

// TestShardedReopenShardCountMismatch: a tree's shard count is sealed into
// its layout and headers, so reopening with any other count fails closed
// with ErrConfigMismatch in every direction — N -> M (header), N -> 1 and
// 1 -> N (layout guard; those pairs use disjoint file names).
func TestShardedReopenShardCountMismatch(t *testing.T) {
	master := bytes.Repeat([]byte{0x52}, 32)
	path := filepath.Join(t.TempDir(), "tree.ekb")
	tr, err := Open(Options{MasterKey: master, Order: 8, Path: path, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	for _, wrong := range []int{2, 4, 1} {
		if _, err := Open(Options{MasterKey: master, Order: 8, Path: path, Shards: wrong}); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("reopen of a 3-shard tree with Shards=%d = %v, want ErrConfigMismatch", wrong, err)
		}
	}

	// The other direction: a single-shard file refuses a sharded open.
	single := filepath.Join(t.TempDir(), "single.ekb")
	s, err := Open(Options{MasterKey: master, Order: 8, Path: single, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Order: 8, Path: single, Shards: 3}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("sharded reopen of a single-shard file = %v, want ErrConfigMismatch", err)
	}

	// The failed opens disturbed nothing: the right counts still work.
	re, err := Open(Options{MasterKey: master, Order: 8, Path: path, Shards: 3})
	if err != nil {
		t.Fatalf("reopen with the sealed shard count: %v", err)
	}
	if st, err := re.Stats(); err != nil || st.Keys != 50 {
		t.Fatalf("reopened stats = (%+v, %v), want 50 keys", st, err)
	}
	re.Close()
	rs, err := Open(Options{MasterKey: master, Order: 8, Path: single, Shards: 1})
	if err != nil {
		t.Fatalf("single-shard reopen: %v", err)
	}
	rs.Close()
}

// TestShardFileNotInterchangeable: shard files seal their own index, so one
// shard's file cannot stand in for another's even within the same layout.
func TestShardFileNotInterchangeable(t *testing.T) {
	master := bytes.Repeat([]byte{0x53}, 32)
	path := filepath.Join(t.TempDir(), "tree.ekb")
	tr, err := Open(Options{MasterKey: master, Order: 8, Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Swap the two shard files.
	p0, p1 := shardPath(path, 0, 2), shardPath(path, 1, 2)
	tmp := p0 + ".tmp"
	for _, mv := range [][2]string{{p0, tmp}, {p1, p0}, {tmp, p1}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Options{MasterKey: master, Order: 8, Path: path, Shards: 2}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("open with swapped shard files = %v, want ErrConfigMismatch", err)
	}
}

// TestCursorMaxEpochAge pins the snapshot-age cap: a cursor whose snapshot
// has fallen more than MaxEpochAge commits behind fails its next positioning
// call with ErrSnapshotTooOld, while fresher cursors, Gets, and newly opened
// cursors are untouched.
func TestCursorMaxEpochAge(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x54}, 32), Order: 8, Shards: 1, MaxEpochAge: 2})
	defer tr.Close()
	for i := 0; i < 10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	c := tr.Cursor()
	defer c.Close()
	if !c.First() {
		t.Fatalf("First on a fresh cursor = false (err %v)", c.Err())
	}
	// Exactly MaxEpochAge commits behind is still within the bound.
	for i := 0; i < 2; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("age-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Next() {
		t.Fatalf("Next at age == MaxEpochAge = false (err %v)", c.Err())
	}
	// One more commit pushes the snapshot past the bound.
	if err := tr.Put([]byte("age-2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.Next() {
		t.Fatal("Next past MaxEpochAge succeeded")
	}
	if err := c.Err(); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("stale cursor Err = %v, want ErrSnapshotTooOld", err)
	}
	if c.First() {
		t.Fatal("First on a stale cursor succeeded")
	}

	// Unrelated reads are unaffected, and a fresh cursor starts at age zero.
	if _, ok, err := tr.Get([]byte("k00")); err != nil || !ok {
		t.Fatalf("Get beside a stale cursor = (%v, %v)", ok, err)
	}
	c2 := tr.Cursor()
	defer c2.Close()
	n := 0
	for ok := c2.First(); ok; ok = c2.Next() {
		n++
	}
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Fatalf("fresh cursor visited %d entries, want 13", n)
	}
}

// TestCursorMaxEpochAgeSharded: with multiple shards the bound applies to
// every shard snapshot the cursor pinned, whichever one it is reading. In the
// first case enough routed single-key commits age SOME shard past the cap; in
// the second a one-byte bucket prefix places the keys, the cursor is still
// reading shard 0 with entries left there, and only shard 2 has aged out —
// the bound caps the memory a pinned snapshot holds, so the cursor must fail
// before it ever gets to that shard.
func TestCursorMaxEpochAgeSharded(t *testing.T) {
	bucketed, err := NewBucketedSubstituter(bytes.Repeat([]byte{0x57}, 32), 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0x58}, 32))
	if err != nil {
		t.Fatal(err)
	}
	var routed [][]byte
	for i := 0; i < 10; i++ { // guarantees some shard publishes more than once
		routed = append(routed, []byte(fmt.Sprintf("age-%d", i)))
	}
	for _, tt := range []struct {
		name        string
		opts        Options
		seed, aging [][]byte
	}{
		{"some shard", Options{MasterKey: bytes.Repeat([]byte{0x55}, 32)}, [][]byte{[]byte("seed")}, routed},
		{"only the last shard, cursor on the first", Options{Substituter: bucketed, Cipher: nc},
			[][]byte{{0x01, 'a'}, {0x02, 'a'}, {0x03, 'a'}}, [][]byte{{0xF0, 'a'}, {0xF1, 'a'}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tt.opts.Order, tt.opts.Shards, tt.opts.MaxEpochAge = 8, 3, 1
			tr := mustOpen(t, tt.opts)
			defer tr.Close()
			for _, k := range tt.seed {
				if err := tr.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			c := tr.Cursor()
			defer c.Close()
			if !c.First() {
				t.Fatalf("First on a fresh cursor = false (err %v)", c.Err())
			}
			for _, k := range tt.aging {
				if err := tr.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if c.Next(); !errors.Is(c.Err(), ErrSnapshotTooOld) {
				t.Fatalf("stale sharded cursor Err = %v, want ErrSnapshotTooOld", c.Err())
			}
		})
	}
}

func TestNegativeMaxEpochAgeInvalid(t *testing.T) {
	_, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x56}, 32), MaxEpochAge: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Open with negative MaxEpochAge = %v, want ErrInvalidOptions", err)
	}
}

func TestShardsOptionValidation(t *testing.T) {
	master := bytes.Repeat([]byte{0x57}, 32)
	if _, err := Open(Options{MasterKey: master, Shards: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Open with negative Shards = %v, want ErrInvalidOptions", err)
	}
	if _, err := Open(Options{MasterKey: master, Shards: 2, Store: NewMemStore()}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Open with Shards=2 and a single Store = %v, want ErrInvalidOptions", err)
	}
}

// TestShardedBatchSpansShards: one batch whose keys route to several shards
// commits through the parallel fan-out and lands completely; Stats counts
// one commit per shard touched.
func TestShardedBatchSpansShards(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x58}, 32), Order: 8, Shards: 4})
	defer tr.Close()
	b := tr.NewBatch()
	for i := 0; i < 200; i++ {
		if err := b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 200 {
		t.Fatalf("Stats.Keys = %d after a 200-key batch, want 200", st.Keys)
	}
	touched := 0
	for _, g := range tr.shards {
		s, err := g.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if s.Keys > 0 {
			touched++
			if s.Commits != 1 {
				t.Errorf("shard with %d keys recorded %d commits, want exactly 1 for its batch slice", s.Keys, s.Commits)
			}
		}
	}
	if touched < 2 {
		t.Fatalf("200 HMAC keys landed on %d shard(s); the batch never spanned shards", touched)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, ok, err := tr.Get([]byte(k)); err != nil || !ok || string(v) != "v"+k[1:] {
			t.Fatalf("Get(%s) = (%q, %v, %v) after batch fan-out", k, v, ok, err)
		}
	}
}

// TestStatsFoldsShards pins how Tree.Stats folds its shards' Engine.Stats:
// every field is the sum but Height and CipherEpoch, which are the maximum,
// and each shard counts itself in Shards and its conflicts in Retries. Two
// shards move to later key epochs, so a sum and a maximum differ there too.
func TestStatsFoldsShards(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x59}, 32), Order: 8, Shards: 3})
	defer tr.Close()
	// No rotation may re-seal the advanced epochs between the reads below.
	tr.stopMaintain()
	put := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 300)
	for _, adv := range []struct{ shard, times int }{{1, 2}, {2, 1}} {
		for i := 0; i < adv.times; i++ {
			if err := tr.shards[adv.shard].AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(300, 310) // a few seals under the new epochs, most pages left stale

	// Each Stats call moves a shard's cache counters by the same amount, the
	// cached pages its walks read, so the fold's own call lands one such step
	// past the second of the two calls taken here.
	var want Stats
	for i, g := range tr.shards {
		first, err := g.Stats()
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if s.Keys == 0 || s.Shards != 1 || s.Retries != s.Conflicts {
			t.Fatalf("shard %d: %s, want keys, Shards 1 and Retries == Conflicts", i, s)
		}
		s.Cache.Hits += s.Cache.Hits - first.Cache.Hits
		s.Cache.Misses += s.Cache.Misses - first.Cache.Misses
		s.Cache.Evictions += s.Cache.Evictions - first.Cache.Evictions
		want.Keys += s.Keys
		want.Nodes += s.Nodes
		want.Height = max(want.Height, s.Height)
		want.Cache.Hits += s.Cache.Hits
		want.Cache.Misses += s.Cache.Misses
		want.Cache.Evictions += s.Cache.Evictions
		want.Cache.Pages += s.Cache.Pages
		want.Commits += s.Commits
		want.Conflicts += s.Conflicts
		want.Retries += s.Retries
		want.Shards += s.Shards
		want.CipherEpoch = max(want.CipherEpoch, s.CipherEpoch)
		want.Seals += s.Seals
		want.PagesPendingReseal += s.PagesPendingReseal
		want.FileBytes += s.FileBytes
		want.LiveBytes += s.LiveBytes
	}
	got, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Tree.Stats = %s\nfolded by hand %s", got, want)
	}
	if got.Shards != 3 || got.Retries != got.Conflicts || got.CipherEpoch != 2 || got.PagesPendingReseal == 0 {
		t.Fatalf("Tree.Stats = %s, want shards=3, retries == conflicts, epoch 2 and pages pending re-seal", got)
	}
}

// TestCursorAcrossShards drives the cursor over the layouts where reading the
// shards one after another could go wrong: empty shards at the front, in a
// run in the middle and at the back (the cursor has to move past them, not
// stop at them), neighbouring keys on either side of a shard boundary, and
// keys sharing their whole 8-byte routing prefix. A 64-bit bucket prefix
// makes a key's first eight bytes its routing prefix, so the test places
// every key in the shard it means to.
func TestCursorAcrossShards(t *testing.T) {
	sub, err := NewBucketedSubstituter(bytes.Repeat([]byte{0x59}, 32), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0x5A}, 32))
	if err != nil {
		t.Fatal(err)
	}
	plain := func(prefix uint64, suffix byte) []byte {
		return append(binary.BigEndian.AppendUint64(nil, prefix), suffix)
	}
	for _, tt := range []struct {
		shards int
		empty  []int
	}{{2, nil}, {3, []int{1}}, {7, []int{0, 3, 4, 6}}} {
		t.Run(fmt.Sprintf("shards=%d", tt.shards), func(t *testing.T) {
			tr := mustOpen(t, Options{Substituter: sub, Cipher: nc, Order: 4, Shards: tt.shards})
			defer tr.Close()
			// Shard i owns the prefixes first[i]..last[i]; mid[i] is one well
			// inside it.
			first, last, mid := make([]uint64, tt.shards), make([]uint64, tt.shards), make([]uint64, tt.shards)
			last[tt.shards-1] = math.MaxUint64
			for i := 1; i < tt.shards; i++ {
				q, r := bits.Div64(uint64(i), 0, uint64(tt.shards))
				if first[i] = q; r != 0 {
					first[i]++
				}
				last[i-1] = first[i] - 1
			}
			type entry struct {
				prefix uint64
				sk     string
			}
			var want []entry
			put := func(prefix uint64, suffix byte) {
				k := plain(prefix, suffix)
				if err := tr.Put(k, k); err != nil {
					t.Fatal(err)
				}
				want = append(want, entry{prefix, string(sub.Substitute(k))})
			}
			for i := range mid {
				mid[i] = first[i] + (last[i]-first[i])/2
				if got := tr.router.Route(plain(mid[i], 0)); got != i {
					t.Fatalf("prefix %#x routes to shard %d, want %d", mid[i], got, i)
				}
				if slices.Contains(tt.empty, i) {
					continue
				}
				put(first[i], 0)
				put(last[i], 0)
				for s := byte(0); s < 5; s++ {
					put(mid[i], s)
				}
			}
			for i, g := range tr.shards {
				st, err := g.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if (st.Keys == 0) != slices.Contains(tt.empty, i) {
					t.Fatalf("shard %d holds %d keys; empty shards are meant to be %v", i, st.Keys, tt.empty)
				}
			}
			slices.SortFunc(want, func(a, b entry) int { return strings.Compare(a.sk, b.sk) })
			// between lists the substituted keys whose prefix is in [lo, hi].
			between := func(lo, hi uint64) []string {
				var out []string
				for _, e := range want {
					if lo <= e.prefix && e.prefix <= hi {
						out = append(out, e.sk)
					}
				}
				return out
			}
			// check reads c from its position to the end and compares.
			check := func(what string, c *Cursor, ok bool, want []string) {
				t.Helper()
				var got []string
				for ; ok; ok = c.Next() {
					if n := len(got); n > 0 && string(c.Key()) <= got[n-1] {
						t.Fatalf("%s: key %x follows %x, not ascending", what, c.Key(), got[n-1])
					}
					if !bytes.Equal(sub.Substitute(c.Value()), c.Key()) {
						t.Fatalf("%s: key %x carries the value of another key", what, c.Key())
					}
					got = append(got, string(c.Key()))
				}
				if err := c.Err(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: read %d entries %x, want %d entries %x", what, len(got), got, len(want), want)
				}
			}

			full := tr.Cursor()
			defer full.Close()
			check("full cursor", full, full.First(), between(0, math.MaxUint64))
			check("full cursor, First again after the end", full, full.First(), between(0, math.MaxUint64))
			for i := range mid {
				check(fmt.Sprintf("Seek into shard %d", i), full, full.Seek(plain(mid[i], 0)), between(mid[i], math.MaxUint64))
			}
			// Ranges from inside shard j to inside shard i: the bucket of the
			// upper bound is included whole.
			for i := range mid {
				for j := 0; j <= i; j++ {
					what := fmt.Sprintf("CursorRange from shard %d to shard %d", j, i)
					c := tr.CursorRange(plain(mid[j], 0), plain(mid[i], 0))
					in := between(mid[j], mid[i])
					check(what, c, c.First(), in)
					check(what+", Seek below lo", c, c.Seek(plain(0, 0)), in)
					check(what+", Seek at hi", c, c.Seek(plain(mid[i]+1, 0)), nil)
					check(what+", Seek after hi", c, c.Seek(plain(math.MaxUint64, 0)), nil)
					check(what+", First again", c, c.First(), in)
					c.Close()
				}
			}
		})
	}
}
