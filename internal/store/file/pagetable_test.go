package file

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
)

// tableStore opens an Async store over a gateSyncFile with the given pages
// already durable. Nothing flushes an Async store until a Sync, so between
// Syncs the pending group's page table can be inspected as the commits left
// it; arming the gate and syncing parks that group in s.flushing.
func tableStore(t *testing.T, durable map[uint64]string) (*Store, *gateSyncFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.ekb")
	gf := newGateSyncFile(t, path)
	s, err := OpenWithConfig(gf, Config{Durability: Async})
	if err != nil {
		t.Fatal(err)
	}
	writes := make(map[uint64][]byte)
	for range durable {
		if _, err := s.Alloc(); err != nil { // ids 1..len(durable)
			t.Fatal(err)
		}
	}
	for id, p := range durable {
		writes[id] = []byte(p)
	}
	if err := s.CommitPages(writes, store.NoRoot, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s, gf, path
}

// parkFlush arms the gate and starts a Sync, returning once the pending group
// has become s.flushing and its flush is parked on the data fsync. The
// returned function releases the gate and waits for that Sync.
func parkFlush(t *testing.T, s *Store, gf *gateSyncFile) (release func()) {
	t.Helper()
	gf.arm()
	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()
	select {
	case <-gf.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("flush never reached its fsync")
	}
	return func() {
		t.Helper()
		close(gf.gate)
		if err := <-synced; err != nil {
			t.Fatal(err)
		}
	}
}

// tableChecks are the assertions both halves of TestGroupPageTable make.
type tableChecks struct {
	t *testing.T
	s *Store
}

func (c tableChecks) commit(writes map[uint64]string, frees ...uint64) {
	c.t.Helper()
	w := make(map[uint64][]byte, len(writes))
	for id, p := range writes {
		w[id] = []byte(p)
	}
	if err := c.s.CommitPages(w, store.NoRoot, frees); err != nil {
		c.t.Fatal(err)
	}
}

// step enqueues what Vacuum's relocate would, the pass alone, without forcing
// the flush.
func (c tableChecks) step(p pass) {
	c.s.mu.Lock()
	c.s.enqueueLocked(change{}).vacuum = &p
	c.s.mu.Unlock()
}

// steps asserts the pass the pending group carries (nil: none).
func (c tableChecks) steps(when string, want *pass) {
	c.t.Helper()
	c.s.mu.RLock()
	defer c.s.mu.RUnlock()
	if g := c.s.pending; !reflect.DeepEqual(g.vacuum, want) {
		c.t.Fatalf("%s: vacuum = %v, want %v", when, g.vacuum, want)
	}
}

// awaitStep returns once the pending group carries a pass: a relocate running
// on another goroutine has been admitted and now waits for its flush.
func (c tableChecks) awaitStep() {
	c.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.s.mu.RLock()
		ok := c.s.pending != nil && c.s.pending.vacuum != nil
		c.s.mu.RUnlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatal("no vacuum step reached the pending group")
		}
	}
}

// pending asserts the pending group's record for id (nil: none) and its bytes.
func (c tableChecks) pending(when string, id uint64, want *gpage, bytes int) {
	c.t.Helper()
	c.s.mu.RLock()
	defer c.s.mu.RUnlock()
	got, ok := c.s.pending.pages[id]
	switch {
	case want == nil && ok:
		c.t.Fatalf("%s: page %d has a record %+v, want none", when, id, got)
	case want != nil && (!ok || !reflect.DeepEqual(got, *want)):
		c.t.Fatalf("%s: page %d record = %+v (present %v), want %+v", when, id, got, ok, *want)
	}
	if c.s.pending.bytes != bytes {
		c.t.Fatalf("%s: group bytes = %d, want %d", when, c.s.pending.bytes, bytes)
	}
}

// reads asserts ReadPage for every id: the wanted bytes, or ErrNotFound for "".
func (c tableChecks) reads(when string, want map[uint64]string) {
	c.t.Helper()
	for id, w := range want {
		got, err := c.s.ReadPage(id)
		if w == "" && !errors.Is(err, store.ErrNotFound) {
			c.t.Fatalf("%s: ReadPage(%d) = (%q, %v), want ErrNotFound", when, id, got, err)
		}
		if w != "" && (err != nil || string(got) != w) {
			c.t.Fatalf("%s: ReadPage(%d) = (%q, %v), want %q", when, id, got, err, w)
		}
	}
}

// TestGroupPageTable walks every transition a page's record can take inside a
// commit group — first over the durable directory alone, then with a flush
// held open so the precedence pending → flushing → durable is walked — and
// checks the record, the group's byte count and what ReadPage answers before
// anything is flushed, then the flushed and reopened result.
func TestGroupPageTable(t *testing.T) {
	t.Run("over durable", func(t *testing.T) {
		const d, e, f = 1, 2, 3
		s, _, _ := tableStore(t, map[uint64]string{d: "durable-d", e: "durable-e", f: "durable-f"})
		defer s.Close()
		c := tableChecks{t, s}
		a, _ := s.Alloc()
		b, _ := s.Alloc()

		c.commit(map[uint64]string{a: "one"})
		c.commit(nil, a)
		c.pending("born and freed in the group", a, nil, 0)
		c.commit(map[uint64]string{a: "three!"})
		c.pending("write, free, rewrite", a, &gpage{buf: []byte("three!")}, 6)

		c.commit(map[uint64]string{b: "short-lived"})
		c.commit(nil, b)
		c.pending("alloc'd, written and freed", b, nil, 6)
		c.reads("freed in its own group", map[uint64]string{b: ""})

		c.commit(nil, d)
		c.pending("free of a durable page", d, &gpage{freed: true}, 6)
		c.reads("tombstone before any flush", map[uint64]string{d: "", a: "three!"})
		c.commit(map[uint64]string{d: "back"})
		c.pending("a freed page rewritten is live again", d, &gpage{buf: []byte("back")}, 10)

		c.steps("no vacuum step yet", nil)
		c.step(pass{lift: true, budget: vacuumBatchBytes})
		c.pending("a step leaves no page record and adds no bytes", e, nil, 10)
		c.reads("a step is invisible to readers", map[uint64]string{e: "durable-e", f: "durable-f"})
		c.commit(map[uint64]string{e: "new-e"}, f)
		c.pending("a write beside a step", e, &gpage{buf: []byte("new-e")}, 15)
		c.pending("a free beside a step", f, &gpage{freed: true}, 15)
		c.steps("the group still carries its pass", &pass{lift: true, budget: vacuumBatchBytes})

		want := map[uint64]string{a: "three!", b: "", d: "back", e: "new-e", f: ""}
		c.reads("applied", want)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		c.reads("flushed: the write and the free won", want)
	})

	t.Run("over a held flush", func(t *testing.T) {
		const d, e = 1, 2
		s, gf, path := tableStore(t, map[uint64]string{d: "durable-d", e: "durable-e"})
		c := tableChecks{t, s}
		x, _ := s.Alloc()
		y, _ := s.Alloc()
		z, _ := s.Alloc()

		c.commit(map[uint64]string{x: "x1", y: "y1"}, d)
		release := parkFlush(t, s, gf)
		s.mu.RLock()
		flushing := s.flushing != nil && s.pending == nil &&
			reflect.DeepEqual(s.flushing.pages, map[uint64]gpage{x: {buf: []byte("x1")}, y: {buf: []byte("y1")}, d: {freed: true}})
		s.mu.RUnlock()
		if !flushing {
			t.Fatal("the parked group is not s.flushing with its three records")
		}
		c.reads("through the flushing group", map[uint64]string{x: "x1", y: "y1", d: "", e: "durable-e"})

		c.commit(map[uint64]string{x: "x2"})
		c.pending("pending over flushing", x, &gpage{buf: []byte("x2")}, 2)
		c.commit(nil, y)
		c.pending("free of a page live in the flushing group", y, &gpage{freed: true}, 2)
		c.commit(nil, d)
		c.pending("free of a page the flushing group already freed", d, nil, 2)
		c.commit(map[uint64]string{d: "d2"})
		c.pending("live over the flushing tombstone", d, &gpage{buf: []byte("d2")}, 4)
		c.commit(map[uint64]string{z: "zz"})
		c.commit(nil, z)
		c.pending("born and freed above a held flush", z, nil, 4)
		c.step(pass{lift: true, budget: vacuumBatchBytes})
		c.commit(map[uint64]string{e: "e2"})
		c.pending("a write beside a step above a held flush", e, &gpage{buf: []byte("e2")}, 6)

		want := map[uint64]string{x: "x2", y: "", z: "", d: "d2", e: "e2"}
		c.reads("pending, then flushing, then durable", want)
		release()
		c.reads("first group installed", want)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		c.reads("both groups flushed", want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenConfig(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		tableChecks{t, re}.reads("reopened", want)
	})
}

// TestAppliedHeaderThroughOverlays pins header inheritance, the rule that
// replaced per-field "was it set" flags: a group starts from the header of the
// state it stacks on, so Root, Meta and SealMark answer the newest of each
// whichever state holds it, and a later group's flush carries an earlier
// group's meta forward instead of reverting to the durable one.
func TestAppliedHeaderThroughOverlays(t *testing.T) {
	s, gf, path := tableStore(t, map[uint64]string{1: "page"})
	c := tableChecks{t, s}
	header := func(when string, st *Store, root uint64, meta string, mark store.SealMark) {
		t.Helper()
		r, err1 := st.Root()
		m, err2 := st.Meta()
		k, err3 := st.SealMark()
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: %v %v %v", when, err1, err2, err3)
		}
		if r != root || string(m) != meta || k != mark {
			t.Fatalf("%s: header = (%d, %q, %+v), want (%d, %q, %+v)", when, r, m, k, root, meta, mark)
		}
	}
	k0, k1 := store.SealMark{}, store.SealMark{Epoch: 3, Clean: 2, Counter: 99}
	header("durable", s, store.NoRoot, "", k0)

	if err := s.SetMeta([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	header("SetMeta pending", s, store.NoRoot, "m1", k0)
	release := parkFlush(t, s, gf)
	header("SetMeta in the flushing group", s, store.NoRoot, "m1", k0)

	if err := s.CommitPages(map[uint64][]byte{1: []byte("page'")}, 1, nil); err != nil {
		t.Fatal(err)
	}
	header("root in the next group, meta inherited from the flushing one", s, 1, "m1", k0)
	if err := s.SetSealMark(k1); err != nil {
		t.Fatal(err)
	}
	header("mark in the next group", s, 1, "m1", k1)
	s.mu.RLock()
	below := s.flushing.header
	s.mu.RUnlock()
	if below.root != store.NoRoot || string(below.meta) != "m1" || below.mark != k0 {
		t.Fatalf("the flushing group's header moved: %+v", below)
	}

	release()
	header("first group installed", s, 1, "m1", k1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	header("both groups flushed", s, 1, "m1", k1)
	c.reads("flushed", map[uint64]string{1: "page'"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	header("reopened", re, 1, "m1", k1)
}

// TestHoldRule is the table of holdLocked, the one place that decides when a
// pending group is taken. No store runs and nothing sleeps: ages are set on
// the group, and a wait is checked against its upper bound. A group a minute
// from birth (age -time.Minute) stays inside its window however long the test
// is preempted, so only the rule can take it now.
func TestHoldRule(t *testing.T) {
	const bound = 100
	for _, tc := range []struct {
		name  string
		mode  Durability
		force bool
		bytes int
		age   time.Duration
		want  time.Duration // 0 take, parked, else wait at most this long
	}{
		{"async parks", Async, false, bound - 1, time.Minute, parked},
		{"async, forced", Async, true, 0, 0, 0},
		{"async at the bound", Async, false, bound, 0, 0},
		{"grouped, young", Grouped, false, 0, -time.Minute, groupWindow + time.Minute},
		{"grouped, window over", Grouped, false, 0, 2 * groupWindow, 0},
		{"grouped, forced", Grouped, true, 0, -time.Minute, 0},
		{"grouped at the bound flushes now", Grouped, false, 2 * bound, -time.Minute, 0},
		{"full, lone committer", Full, false, 0, 0, 0},
		{"full, forced", Full, true, 0, 0, 0},
		{"full at the bound skips the hold", Full, false, bound, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Store{cfg: Config{Durability: tc.mode, MaxUnflushed: bound}, force: tc.force}
			g := &group{bytes: tc.bytes, birth: time.Now().Add(-tc.age)}
			d := s.holdLocked(g)
			switch {
			case tc.want == 0 || tc.want == parked:
				if d != tc.want {
					t.Fatalf("holdLocked = %v, want %v", d, tc.want)
				}
			case d <= 0 || d > tc.want:
				t.Fatalf("holdLocked = %v, want a wait of at most %v", d, tc.want)
			}
		})
	}
}
