package fixture

import "sync/atomic"

// A directory split into sub-tables: a writer copies only the table it
// changes and shares the other one's pointer with the published snapshot.
// Sharing is fine; writing into a shared table is the same race as writing
// into the snapshot itself.

type userTab struct {
	ids   map[string]int
	names []string
}

type adTab struct{ ids map[string]int }

type splitDir struct {
	users *userTab
	ads   *adTab
}

var split atomic.Pointer[splitDir]

func cloneAds(t *adTab) *adTab {
	nt := &adTab{ids: make(map[string]int, len(t.ids)+1)}
	for k, v := range t.ids {
		nt.ids[k] = v
	}
	return nt
}

func splitConforming(name string, id int) {
	d := split.Load()
	ads := cloneAds(d.ads)
	ads.ids[name] = id
	// The new directory shares the unchanged user table.
	split.Store(&splitDir{users: d.users, ads: ads})

	nd := &splitDir{users: d.users}
	nd.ads = cloneAds(d.ads)
	nd.ads.ids[name] = id // the private ad table is free to mutate
	split.Store(nd)
}

func splitViolating(name string, id int) {
	d := split.Load()
	d.users.ids[name] = id // want `write to copy-on-write snapshot`
	users := d.users
	users.names[0] = name   // want `write to copy-on-write snapshot`
	delete(d.ads.ids, name) // want `delete on map owned by a copy-on-write snapshot`

	// A shared table stays shared inside the new directory.
	nd := &splitDir{users: d.users, ads: cloneAds(d.ads)}
	nd.users.ids[name] = id // want `write to copy-on-write snapshot`
	nd.ads.ids[name] = id

	var od splitDir
	od.ads = d.ads
	od.ads.ids[name] = id // want `write to copy-on-write snapshot`
}
