package engines

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"comfort/internal/js/interp"
)

// Hook is a defect's interception together with its key: the hook site
// it listens at and, for interp.HookBuiltin and interp.HookRegexExec, the
// canonical API name (interp.HookCtx.Name). The key is where the hook is
// asked: dispatch (hookTable) calls Fn only at sites whose Site and Name
// match, so Fn itself checks neither.
type Hook struct {
	Site interp.HookSite
	Name string // HookBuiltin and HookRegexExec only
	Fn   interp.Hook
}

// named reports whether a site's key carries the API name.
func named(site interp.HookSite) bool {
	return site == interp.HookBuiltin || site == interp.HookRegexExec
}

// numSites bounds the hook sites; a site without a name is its own key
// number.
const numSites = int(interp.HookUndeclaredAssign) + 1

// siteName is a named hook key.
type siteName struct {
	site interp.HookSite
	name string
}

// keyNumbers numbers hook keys process-wide: a site without a name has
// its own value, and each (site, name) pair gets the next number from
// numSites up the first time a table holds a hook keyed there. A number
// is never reused, so a table built earlier holds no hook at a number
// handed out later. The map is copied on write: dispatch reads the
// published one without a lock.
var (
	keyMu      sync.Mutex
	keyNumbers atomic.Pointer[map[siteName]int32]
)

// keyNumber returns the key number of the named site a ctx describes,
// or -1 when no table holds a hook keyed there.
func keyNumber(ctx *interp.HookCtx) int {
	m := keyNumbers.Load()
	if m == nil {
		return -1
	}
	if k, ok := (*m)[siteName{ctx.Site, ctx.Name}]; ok {
		return int(k)
	}
	return -1
}

// numberKeys returns the key number of each defect's hook, numbering new
// named keys.
func numberKeys(defects []*Defect) []int32 {
	keyMu.Lock()
	defer keyMu.Unlock()
	var cur map[siteName]int32
	if m := keyNumbers.Load(); m != nil {
		cur = *m
	}
	next := cur
	out := make([]int32, len(defects))
	for i, d := range defects {
		h := d.Hook
		if !named(h.Site) {
			out[i] = int32(h.Site)
			continue
		}
		key := siteName{h.Site, h.Name}
		k, ok := next[key]
		if !ok {
			if len(next) == len(cur) { // first new key: readers keep cur
				next = make(map[siteName]int32, len(cur)+len(defects))
				maps.Copy(next, cur)
			}
			k = int32(numSites + len(next))
			next[key] = k
		}
		out[i] = k
	}
	if len(next) != len(cur) {
		keyNumbers.Store(&next)
	}
	return out
}

// hookTable dispatches a hook site to the hooks keyed there. Each
// bucket lists its hooks' indexes in the table's order (ID order), and
// hooks of different keys never match the same site, so asking a site's
// bucket in order is asking every hook in order: the first override still
// wins. The buckets share one index array, grouped by key number: the
// unnamed sites' groups first, found by site, then the named keys' in
// ascending key number, found by binary search. A table's size follows
// its hooks, not the process-wide key count: every prepared testbed and
// single-defect runner keeps one.
type hookTable struct {
	fns   []interp.Hook       // the hooks' Fn, table order
	order []int32             // indexes into fns, grouped by key number
	sites [numSites + 1]int32 // unnamed site s's group is order[sites[s]:sites[s+1]]
	names []int32             // the named keys' numbers, ascending
	ends  []int32             // names[j]'s group ends at order[ends[j]]
}

// newHookTable builds the table over defects' hooks, in slice order.
func newHookTable(defects []*Defect) hookTable {
	t := hookTable{fns: make([]interp.Hook, len(defects)), order: make([]int32, len(defects))}
	for i, d := range defects {
		t.fns[i] = d.Hook.Fn
		t.order[i] = int32(i)
	}
	keys := numberKeys(defects)
	sort.SliceStable(t.order, func(a, b int) bool { return keys[t.order[a]] < keys[t.order[b]] })
	p := 0
	for s := range t.sites {
		for p < len(t.order) && int(keys[t.order[p]]) < s {
			p++
		}
		t.sites[s] = int32(p)
	}
	for ; p < len(t.order); p++ {
		k := keys[t.order[p]]
		if n := len(t.names); n == 0 || t.names[n-1] != k {
			if n > 0 {
				t.ends = append(t.ends, int32(p))
			}
			t.names = append(t.names, k)
		}
	}
	if len(t.names) > 0 {
		t.ends = append(t.ends, int32(len(t.order)))
	}
	return t
}

// bucket returns the indexes of the hooks keyed at ctx's site.
func (t *hookTable) bucket(ctx *interp.HookCtx) []int32 {
	if !named(ctx.Site) {
		return t.order[t.sites[ctx.Site]:t.sites[ctx.Site+1]]
	}
	if len(t.names) == 0 {
		return nil
	}
	j, ok := slices.BinarySearch(t.names, int32(keyNumber(ctx)))
	if !ok {
		return nil
	}
	start := t.sites[numSites]
	if j > 0 {
		start = t.ends[j-1]
	}
	return t.order[start:t.ends[j]]
}
