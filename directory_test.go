package caar

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"caar/internal/feed"
)

// checkTrie requires every handle in want to resolve to its ID, and a
// handle outside it not to resolve.
func checkTrie(t *testing.T, tr handleTrie, want map[string]feed.UserID) {
	t.Helper()
	for h, id := range want {
		if got, ok := tr.get(h); !ok || got != id {
			t.Fatalf("get(%q) = %d, %v; want %d", h, got, ok, id)
		}
	}
	if _, ok := tr.get("absent"); ok {
		t.Fatal(`get("absent") found an entry`)
	}
}

func TestHandleTrieIsPersistent(t *testing.T) {
	tr := newDirectory().users.handles
	if _, ok := tr.get("a"); ok {
		t.Fatal("empty trie found an entry")
	}
	// Every 500 inserts keep the trie as it was, and check later that no
	// insert changed it.
	type version struct {
		tr   handleTrie
		size int
	}
	var versions []version
	want := map[string]feed.UserID{}
	handles := make([]string, 5000)
	for i := range handles {
		handles[i] = fmt.Sprintf("h%d", i)
		tr = tr.with(handles[i], feed.UserID(i))
		want[handles[i]] = feed.UserID(i)
		if i%500 == 0 {
			versions = append(versions, version{tr, i + 1})
		}
	}
	checkTrie(t, tr, want)
	for _, v := range versions {
		if _, ok := v.tr.get(handles[v.size-1]); !ok {
			t.Fatalf("version of size %d lost its last handle", v.size)
		}
		if _, ok := v.tr.get(handles[v.size]); ok {
			t.Fatalf("version of size %d sees a later insert", v.size)
		}
	}

	bulk, err := newUserTable(handles)
	if err != nil {
		t.Fatal(err)
	}
	checkTrie(t, bulk.handles, want)
}

// TestHandleTrieFullCollisions drives entries whose 64-bit hashes collide
// past every trie level: they share a leaf at full depth, which must hold
// any number of entries.
func TestHandleTrieFullCollisions(t *testing.T) {
	var root *trieNode
	var entries []trieEntry
	for i := 0; i < 3*trieLeafMax; i++ {
		e := trieEntry{hash: 42, handle: fmt.Sprintf("c%d", i), id: feed.UserID(i)}
		entries = append(entries, e)
		root = root.with(e, 0)
	}
	for _, n := range []*trieNode{root, buildTrie(entries, 0)} {
		depth := 0
		for ; n.kids != nil; depth++ {
			n = n.kids[0]
		}
		if !trieFull(uint(depth)) || len(n.entries) != len(entries) {
			t.Fatalf("leaf at depth %d holds %d entries, want all %d at full depth", depth, len(n.entries), len(entries))
		}
	}
}

// TestConcurrentAddUserLookups races AddUser writers against readers of the
// published directory. Successive user tables share the names backing
// array and most trie nodes, so a reader must see every handle published
// before its load, each resolving to the ID whose name is that handle.
func TestConcurrentAddUserLookups(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	const writers, readers, perWriter = 2, 4, 300
	var (
		published [writers]atomic.Int64
		done      atomic.Bool
		wg        sync.WaitGroup
	)
	handle := func(w, i int) string { return fmt.Sprintf("w%d-%04d", w, i) }
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := e.AddUser(handle(w, i)); err != nil {
					t.Errorf("AddUser: %v", err)
					return
				}
				published[w].Store(int64(i + 1))
			}
		}(w)
	}
	var readersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; !done.Load(); i++ {
				w := (r + i) % writers
				n := int(published[w].Load())
				d := e.dir.Load()
				if n == 0 {
					continue
				}
				h := handle(w, (i*31)%n)
				id, err := d.lookup(h)
				if err != nil {
					t.Errorf("lookup(%q) of a published handle: %v", h, err)
					return
				}
				if got := d.userName(id); got != h {
					t.Errorf("userName(%d) = %q, want %q", id, got, h)
					return
				}
				if err := e.ValidateUser(h); err != nil {
					t.Errorf("ValidateUser(%q): %v", h, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	readersWG.Wait()

	d := e.dir.Load()
	if len(d.users.names) != writers*perWriter {
		t.Fatalf("%d users published, want %d", len(d.users.names), writers*perWriter)
	}
	for id, h := range d.users.names {
		if got, ok := d.users.handles.get(h); !ok || got != feed.UserID(id) {
			t.Fatalf("get(%q) = %d, %v; want %d", h, got, ok, id)
		}
	}
}

// BenchmarkAddUser measures one AddUser into an engine that already holds
// 10k, 50k and 200k users (restored from a snapshot, so set-up is linear).
// Per-op cost should stay flat across the sweep: a publish copies one trie
// path and appends one name, not the whole user table.
func BenchmarkAddUser(b *testing.B) {
	for _, n := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.WindowSize = 1 // keep per-user shard state small at 200k users
			e, err := Restore(cfg, bytes.NewReader(syntheticSnapshot(b, n, 100)))
			if err != nil {
				b.Fatal(err)
			}
			handles := make([]string, b.N)
			for i := range handles {
				handles[i] = fmt.Sprintf("new%09d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, h := range handles {
				if err := e.AddUser(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
