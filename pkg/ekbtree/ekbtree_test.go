package ekbtree

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

func TestOpenValidation(t *testing.T) {
	master := bytes.Repeat([]byte{0x11}, 32)
	tests := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"defaults", Options{MasterKey: master}, false},
		{"explicit order", Options{MasterKey: master, order: 8}, false},
		{"odd order", Options{MasterKey: master, order: 7}, true},
		{"tiny order", Options{MasterKey: master, order: 2}, true},
		{"short master key", Options{MasterKey: []byte("short")}, true},
		{"no keys at all", Options{}, true},
		{"auto-vacuum", Options{MasterKey: master, AutoVacuum: 0.5}, false},
		{"auto-vacuum negative", Options{MasterKey: master, AutoVacuum: -0.1}, true},
		{"auto-vacuum whole file", Options{MasterKey: master, AutoVacuum: 1}, true},
		{"auto-vacuum NaN", Options{MasterKey: master, AutoVacuum: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := Open(tt.opts)
			if (err != nil) != tt.wantErr {
				t.Errorf("Open error = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil {
				tr.Close()
			}
		})
	}
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x11}, 32), order: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("user:%04d", i))
		if err := tr.Put(k, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("user:%04d", i))
		v, ok, err := tr.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("Get(%s) = (%q, %v, %v)", k, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get([]byte("user:9999")); ok {
		t.Error("absent key reported present")
	}
	for i := 0; i < 500; i += 2 {
		k := []byte(fmt.Sprintf("user:%04d", i))
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("Delete(%s) = (%v, %v)", k, ok, err)
		}
	}
	for i := 0; i < 500; i++ {
		_, ok, _ := tr.Get([]byte(fmt.Sprintf("user:%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after deletes, Get(%d) present = %v, want %v", i, ok, want)
		}
	}
	if s, _ := tr.Stats(); s.Keys != 250 {
		t.Errorf("Stats.Keys = %d, want 250", s.Keys)
	}
}

// TestRoundTripProperty is the headline property test: insert N random keys,
// verify every one is retrievable and a cursor visits exactly N entries in
// ascending substituted-key order.
func TestRoundTripProperty(t *testing.T) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x22}, 32), order: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const n = 1000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 16)
		if _, err := rand.Read(keys[i]); err != nil {
			t.Fatal(err)
		}
		if err := tr.Put(keys[i], append([]byte("val-"), keys[i]...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%x) = (%v, %v)", k, ok, err)
		}
		if !bytes.Equal(v, append([]byte("val-"), k...)) {
			t.Fatalf("Get(%x) returned wrong value", k)
		}
	}
	var scanned [][]byte
	if err := walk(tr.Cursor(), func(sk, _ []byte) bool {
		scanned = append(scanned, append([]byte(nil), sk...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != n {
		t.Fatalf("a cursor visited %d entries, want %d", len(scanned), n)
	}
	if !sort.SliceIsSorted(scanned, func(i, j int) bool { return bytes.Compare(scanned[i], scanned[j]) < 0 }) {
		t.Error("a cursor walk is not in ascending substituted-key order")
	}
}

// TestNoPlaintextInStore verifies the paper's core guarantee end to end,
// against an attacker who reads the untrusted storage: with the real cipher,
// neither plaintext keys nor values appear anywhere in the page file — slots,
// directory, live pages, and the stale page versions overwrites and deletes
// left in free extents; and even with the pass-through cipher, plaintext keys
// still never appear because the tree indexes substituted keys only.
func TestNoPlaintextInStore(t *testing.T) {
	configs := []struct {
		name        string
		cipher      cipher.NodeCipher
		checkValues bool // values are only hidden by the page cipher
	}{
		{"aes-gcm", nil, true},
		{"plaintext cipher, substituted keys only", cipher.Plaintext{}, false},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plain.ekb")
			tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x33}, 32), order: 8, Path: path, Cipher: cfg.cipher})
			// Only embed the key in the value when the page cipher hides
			// values; key substitution alone protects keys, not payloads.
			value := func(k []byte) []byte {
				if cfg.checkValues {
					return append([]byte("secret-value-"), k...)
				}
				return []byte("v")
			}
			// Every key is written twice and a third deleted, so the file
			// holds superseded versions of most pages.
			keys := make([][]byte, 400)
			for i := range keys {
				keys[i] = make([]byte, 16)
				rand.Read(keys[i])
			}
			for _, k := range append(keys, keys...) {
				if err := tr.Put(k, value(k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:len(keys)/3] {
				if _, err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if bytes.Contains(image, k) {
					t.Fatalf("page file contains plaintext key %x", k)
				}
				if cfg.checkValues && bytes.Contains(image, value(k)) {
					t.Fatal("page file contains a plaintext value")
				}
			}
		})
	}
}

// TestBucketedScanOrder checks that the order-preserving bucket substituter
// makes a cursor follow plaintext order when keys fall in distinct buckets.
func TestBucketedScanOrder(t *testing.T) {
	inner, err := keysub.NewHMAC(bytes.Repeat([]byte{0x44}, 32), 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := keysub.NewBucketed(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0x55}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(Options{Substituter: sub, Cipher: gcm, order: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Distinct 2-byte prefixes → distinct buckets → plaintext order holds.
	plain := make([][]byte, 0, 26*26)
	for a := byte('a'); a <= 'z'; a++ {
		for b := byte('a'); b <= 'z'; b++ {
			plain = append(plain, []byte{a, b, '-', 'k'})
		}
	}
	subToPlain := make(map[string][]byte, len(plain))
	rng := mrand.New(mrand.NewSource(5))
	for _, i := range rng.Perm(len(plain)) {
		k := plain[i]
		subToPlain[string(sub.Substitute(k))] = k
		if err := tr.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := walk(tr.Cursor(), func(sk, _ []byte) bool {
		got = append(got, subToPlain[string(sk)])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain) {
		t.Fatalf("a cursor visited %d, want %d", len(got), len(plain))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return bytes.Compare(got[i], got[j]) < 0 }) {
		t.Error("a bucketed cursor walk is not in plaintext order")
	}
	// A plaintext range scan works at bucket granularity: bounds expand to
	// whole buckets, so the result is a superset of the plaintext range.
	// Bounds in empty buckets ("c", "d" zero-pad to buckets holding no keys)
	// give an exact result: all 26 "c?" keys.
	var ranged [][]byte
	if err := walk(tr.CursorRange([]byte("c"), []byte("d")), func(sk, _ []byte) bool {
		ranged = append(ranged, subToPlain[string(sk)])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ranged) != 26 {
		t.Fatalf("CursorRange visited %d entries, want 26", len(ranged))
	}
	for _, k := range ranged {
		if k[0] != 'c' {
			t.Errorf("CursorRange returned out-of-range key %q", k)
		}
	}
}

// TestBucketedScanRangeSuperset pins the range contract when bounds fall
// inside occupied buckets: every plaintext key in [from, to) must be
// visited — boundary buckets may contribute extras, but never drop in-range
// keys.
func TestBucketedScanRangeSuperset(t *testing.T) {
	sub, err := NewBucketedSubstituter(bytes.Repeat([]byte{0x88}, 32), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0x89}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(Options{Substituter: sub, Cipher: gcm, order: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Ten keys per bucket across buckets "aa".."ae".
	subToPlain := map[string]string{}
	for _, b := range []string{"aa", "ab", "ac", "ad", "ae"} {
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("%s-%d", b, i)
			subToPlain[string(sub.Substitute([]byte(k)))] = k
			if err := tr.Put([]byte(k), []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Bounds land inside occupied buckets "ab" and "ad".
	got := map[string]bool{}
	if err := walk(tr.CursorRange([]byte("ab-3"), []byte("ad-7")), func(sk, _ []byte) bool {
		got[subToPlain[string(sk)]] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for k := range subToPlain {
		plain := subToPlain[k]
		inRange := plain >= "ab-3" && plain < "ad-7"
		if inRange && !got[plain] {
			t.Errorf("in-range key %q dropped from CursorRange", plain)
		}
		if got[plain] && (plain[:2] < "ab" || plain[:2] > "ad") {
			t.Errorf("key %q outside boundary buckets visited", plain)
		}
	}
}

// TestReopen verifies that a store written by one Tree is readable by a new
// Tree opened with the same master key, and unreadable with a different key.
func TestReopen(t *testing.T) {
	master := bytes.Repeat([]byte{0x66}, 32)
	st := file.NewMem()
	tr, err := Open(Options{MasterKey: master, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("persist"), []byte("me")); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(Options{MasterKey: master, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tr2.Get([]byte("persist")); err != nil || !ok || string(v) != "me" {
		t.Fatalf("reopened Get = (%q, %v, %v)", v, ok, err)
	}

	// The sealed store header makes a wrong master key fail at Open.
	wrong := bytes.Repeat([]byte{0x67}, 32)
	if _, err := Open(Options{MasterKey: wrong, Store: st}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong master key = %v, want ErrWrongKey", err)
	}
}

// TestReopenConfigMismatch verifies the sealed header rejects reopening a
// store with a different substituter than it was written with. The order is
// not the opener's to state: a reopen takes the header's
// (TestFileBackendPersistence).
func TestReopenConfigMismatch(t *testing.T) {
	master := bytes.Repeat([]byte{0x68}, 32)
	st := file.NewMem()
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st}); err != nil {
		t.Fatal(err)
	}
	sub, err := keysub.NewHMAC(master, 16) // differs from derived width 24
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st, Substituter: sub}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched substituter = %v, want ErrConfigMismatch", err)
	}
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st}); err != nil {
		t.Errorf("Open with matching config failed: %v", err)
	}
}

// TestShardedReopenShardCountMismatch verifies the layouts a range-sharded
// tree left behind fail closed whatever shard count they record: a Path
// beside a Path+".shard0" file, which must not be created as a fresh empty
// tree, and a shard's own file, whose header records its place in the layout.
// The refused opens disturb nothing: an unsharded file still reopens whole.
func TestShardedReopenShardCountMismatch(t *testing.T) {
	master := bytes.Repeat([]byte{0x52}, 32)
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.ekb")
	if err := os.WriteFile(path+".shard0", []byte("shard 0"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Path: path}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open beside a .shard0 file = %v, want ErrConfigMismatch", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused Open left a file at Path: %v", err)
	}

	_, derived, nc, _, err := Options{MasterKey: master}.validate()
	if err != nil {
		t.Fatal(err)
	}
	for l, layout := range []string{"0/2", "2/3", "0/1"} {
		base := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s shards=%s", DefaultOrder, derived.Name(), nc.Name(), layout)
		for i, header := range []string{base, base + encPrefixToken} {
			shard := filepath.Join(dir, fmt.Sprintf("shard-%d-%d.ekb", l, i))
			fs, err := file.OpenConfig(shard, file.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := nc.Seal(metaPageID, []byte(header))
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.SetMeta(sealed); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{MasterKey: master, Path: shard}); !errors.Is(err, ErrConfigMismatch) {
				t.Errorf("Open of a file whose header is %q = %v, want ErrConfigMismatch", header, err)
			}
		}
	}

	single := filepath.Join(dir, "single.ekb")
	s, err := Open(Options{MasterKey: master, order: 8, Path: single})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{MasterKey: master, order: 8, Path: single})
	if err != nil {
		t.Fatalf("reopen of the unsharded file: %v", err)
	}
	defer re.Close()
	if st, err := re.Stats(); err != nil || st.Keys != 50 {
		t.Fatalf("reopened stats = (%+v, %v), want 50 keys", st, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x77}, 32)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := tr.Put(k, k); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(v, k) {
					t.Errorf("Get(%s) = (%q, %v, %v)", k, v, ok, err)
					return
				}
				if i%3 == 0 {
					if _, err := tr.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
