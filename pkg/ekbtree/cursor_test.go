package ekbtree

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// walk visits every entry of c from First on, stopping early if fn returns
// false, closes c and returns its error: the loop a callback-style scan
// would be.
func walk(c *Cursor, fn func(subKey, value []byte) bool) error {
	defer c.Close()
	for ok := c.First(); ok && fn(c.Key(), c.Value()); ok = c.Next() {
	}
	return c.Err()
}

// TestCursorFullIteration inserts enough random keys to span many leaves and
// checks the cursor visits every entry exactly once, in ascending
// substituted-key order: the keys' substitutions, sorted.
func TestCursorFullIteration(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA1}, 32), order: 8})
	defer tr.Close()

	const n = 768 // several levels' worth of leaves at order 8
	want := make([][]byte, n)
	for i := range want {
		k := make([]byte, 16)
		if _, err := rand.Read(k); err != nil {
			t.Fatal(err)
		}
		if err := tr.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want[i] = tr.sub.Substitute(k)
	}
	slices.SortFunc(want, bytes.Compare)

	c := tr.Cursor()
	defer c.Close()
	var fromCursor [][]byte
	for ok := c.First(); ok; ok = c.Next() {
		fromCursor = append(fromCursor, c.Key())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fromCursor) != n {
		t.Fatalf("cursor visited %d entries, want %d", len(fromCursor), n)
	}
	for i := range fromCursor {
		if !bytes.Equal(fromCursor[i], want[i]) {
			t.Fatalf("entry %d is %x, want %x: not every substitution once, in ascending order", i, fromCursor[i], want[i])
		}
	}
}

func TestCursorEmptyTree(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA2}, 32)})
	defer tr.Close()
	c := tr.Cursor()
	defer c.Close()
	if c.First() {
		t.Error("First on empty tree reported an entry")
	}
	if c.Next() {
		t.Error("Next on empty tree reported an entry")
	}
	if c.Key() != nil || c.Value() != nil {
		t.Error("unpositioned cursor returned non-nil Key/Value")
	}
	if err := c.Err(); err != nil {
		t.Errorf("Err on empty tree = %v", err)
	}
}

// bucketedTree builds a tree over an order-preserving substituter with keys
// "aa".."zz", returning the tree and a substituted→plaintext map.
func bucketedTree(t *testing.T) (*Tree, map[string]string) {
	t.Helper()
	sub, err := NewBucketedSubstituter(bytes.Repeat([]byte{0xA3}, 32), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xA4}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, Options{Substituter: sub, Cipher: nc, order: 4})
	subToPlain := make(map[string]string)
	for a := byte('a'); a <= 'z'; a++ {
		for b := byte('a'); b <= 'z'; b++ {
			k := string([]byte{a, b})
			subToPlain[string(sub.Substitute([]byte(k)))] = k
			if err := tr.Put([]byte(k), []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr, subToPlain
}

// TestCursorRangeBucketed checks CursorRange over an order-preserving
// substituter whose buckets are exact: 16-bit buckets over 2-byte keys, so
// each key is a bucket of its own. The range visits every plaintext key in
// its bounds, in plaintext order, and nothing else but the upper bound's own
// bucket, which the superset contract lets a boundary bucket add.
func TestCursorRangeBucketed(t *testing.T) {
	tr, subToPlain := bucketedTree(t)
	defer tr.Close()

	var want []string // [ca, fm]
	for a := byte('c'); a <= 'f'; a++ {
		for b := byte('a'); b <= 'z' && string([]byte{a, b}) <= "fm"; b++ {
			want = append(want, string([]byte{a, b}))
		}
	}
	c := tr.CursorRange([]byte("ca"), []byte("fm"))
	defer c.Close()
	var fromCursor []string
	for ok := c.First(); ok; ok = c.Next() {
		fromCursor = append(fromCursor, subToPlain[string(c.Key())])
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fromCursor, want) && !slices.Equal(fromCursor, want[:len(want)-1]) {
		t.Errorf("CursorRange(ca, fm) visited %v, want %v, fm optional", fromCursor, want)
	}
}

// TestCursorSeekBucketed checks Seek's superset contract with an
// order-preserving substituter: iterating from Seek(k) yields every plaintext
// key >= k (bucket boundaries may add earlier keys from k's bucket, never
// drop later ones).
func TestCursorSeekBucketed(t *testing.T) {
	tr, subToPlain := bucketedTree(t)
	defer tr.Close()

	c := tr.Cursor()
	defer c.Close()
	seen := make(map[string]bool)
	for ok := c.Seek([]byte("mh")); ok; ok = c.Next() {
		seen[subToPlain[string(c.Key())]] = true
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for k := range subToPlain {
		plain := subToPlain[k]
		if plain >= "mh" && !seen[plain] {
			t.Errorf("Seek dropped in-range key %q", plain)
		}
		// 16-bit buckets over 2-byte keys are exact, so nothing before the
		// seek key's bucket should appear.
		if plain < "mh" && seen[plain] {
			t.Errorf("Seek visited key %q before the seek bucket", plain)
		}
	}

	// Re-seek backwards on the same cursor restarts from the earlier bucket.
	count := 0
	for ok := c.Seek([]byte("ya")); ok; ok = c.Next() {
		count++
	}
	if count != 2*26 {
		t.Errorf("Seek(ya) visited %d entries, want %d", count, 2*26)
	}
}

// TestCursorRangeClampsSeek checks that seeking below a bounded cursor's
// lower bound clamps to the bound rather than escaping the range.
func TestCursorRangeClampsSeek(t *testing.T) {
	tr, subToPlain := bucketedTree(t)
	defer tr.Close()
	c := tr.CursorRange([]byte("fa"), []byte("ha"))
	defer c.Close()
	if !c.Seek([]byte("aa")) {
		t.Fatal("Seek below range found nothing")
	}
	if got := subToPlain[string(c.Key())]; got != "fa" {
		t.Errorf("Seek below range positioned at %q, want %q", got, "fa")
	}
}

// TestScanReentrancy is the acceptance check that caller code never runs
// under the writer lock: the body of a cursor loop re-enters the tree with
// Get, Put, and a nested cursor — the Put would deadlock against a held
// write turn, so its completion proves no lock is held. With snapshot
// cursors the Put inside the loop is invisible to the ongoing scan but
// fully visible afterwards.
func TestScanReentrancy(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA5}, 32), order: 8})
	defer tr.Close()
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	err := walk(tr.Cursor(), func(_, _ []byte) bool {
		calls++
		if calls > 1 {
			return true // re-enter only on the first entry; keep the test fast
		}
		if _, _, err := tr.Get([]byte("k005")); err != nil {
			t.Fatalf("Get inside a cursor loop: %v", err)
		}
		if err := tr.Put([]byte("reentrant"), []byte("yes")); err != nil {
			t.Fatalf("Put inside a cursor loop: %v", err)
		}
		inner := tr.Cursor()
		defer inner.Close()
		if !inner.First() {
			t.Fatal("nested cursor found nothing")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("the cursor visited nothing")
	}
	if v, ok, err := tr.Get([]byte("reentrant")); err != nil || !ok || string(v) != "yes" {
		t.Fatalf("reentrant Put not visible: (%q, %v, %v)", v, ok, err)
	}
}

// TestCursorClosed pins the ErrClosed behavior of closed cursors and closed
// trees.
func TestCursorClosed(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA6}, 32)})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	c := tr.Cursor()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.First() {
		t.Error("First on closed cursor reported an entry")
	}
	if !errors.Is(c.Err(), ErrClosed) {
		t.Errorf("closed cursor Err = %v, want ErrClosed", c.Err())
	}

	c2 := tr.Cursor()
	defer c2.Close()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if c2.First() {
		t.Error("First on cursor over closed tree reported an entry")
	}
	if !errors.Is(c2.Err(), ErrClosed) {
		t.Errorf("cursor over closed tree Err = %v, want ErrClosed", c2.Err())
	}
}

// TestCursorSurfacesOpenError pins that a cursor which could take no snapshot
// reports why, from Err at once and from every positioning call after, rather
// than a blanket ErrClosed once First is tried.
func TestCursorSurfacesOpenError(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA8}, 32)})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The failure engine.Snapshot can produce today: the tree is closed.
	closed := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA8}, 32)})
	closed.Close()
	if c := closed.Cursor(); !errors.Is(c.Err(), ErrClosed) {
		t.Errorf("Err on a cursor opened over a closed tree = %v before any call, want ErrClosed", c.Err())
	}
	// Any other failure must come through unchanged, over a live tree too.
	errSnap := errors.New("injected: snapshot refused")
	c := &Cursor{t: tr, err: errSnap}
	defer c.Close()
	if c.First() || !errors.Is(c.Err(), errSnap) {
		t.Errorf("First: Err = %v, want the open error", c.Err())
	}
	if c.Seek([]byte("k")) || !errors.Is(c.Err(), errSnap) {
		t.Errorf("Seek: Err = %v, want the open error", c.Err())
	}
	if c.Next() || !errors.Is(c.Err(), errSnap) {
		t.Errorf("Next: Err = %v, want the open error", c.Err())
	}
}

// TestCursorConcurrentWithWrites iterates while other goroutines mutate the
// tree; exercised under -race in CI. The cursor must never error, repeat, or
// go backwards.
func TestCursorConcurrentWithWrites(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xA7}, 32), order: 8})
	defer tr.Close()
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("seed%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("w%d-%05d", g, i))
				if err := tr.Put(k, k); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Delete([]byte(fmt.Sprintf("seed%05d", (g*500+i)%2000))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for iter := 0; iter < 5; iter++ {
		c := tr.Cursor()
		var prev []byte
		for ok := c.First(); ok; ok = c.Next() {
			if prev != nil && bytes.Compare(c.Key(), prev) <= 0 {
				t.Fatal("cursor went backwards under concurrent writes")
			}
			prev = c.Key()
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	close(stop)
	wg.Wait()
}

// TestCursorMaxEpochAge pins the snapshot-age cap: a cursor whose snapshot
// has fallen more than MaxEpochAge commits behind fails its next positioning
// call with ErrSnapshotTooOld, while fresher cursors, Gets, and newly opened
// cursors are untouched.
func TestCursorMaxEpochAge(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x54}, 32), order: 8, MaxEpochAge: 2})
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

func TestNegativeMaxEpochAgeInvalid(t *testing.T) {
	_, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x56}, 32), MaxEpochAge: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Open with negative MaxEpochAge = %v, want ErrInvalidOptions", err)
	}
}
