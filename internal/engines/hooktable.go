package engines

import (
	"cmp"
	"slices"
	"strings"

	"comfort/internal/js/interp"
)

// Hook is a defect's interception together with its key: the hook site
// it listens at and, for interp.HookBuiltin, interp.HookConstruct and
// interp.HookRegexExec, the canonical API name (interp.HookCtx.Name). The key is where the hook is
// asked: dispatch (hookTable) calls Fn only at sites whose Site and Name
// match, so Fn itself checks neither.
type Hook struct {
	Site interp.HookSite
	Name string // HookBuiltin, HookConstruct and HookRegexExec only
	Fn   interp.Hook
}

// named reports whether a site's key carries the API name.
func named(site interp.HookSite) bool {
	return site == interp.HookBuiltin || site == interp.HookConstruct || site == interp.HookRegexExec
}

// numSites bounds the hook sites: every interp.HookSite is below it.
const numSites = int(interp.HookConstruct) + 1

// siteName is a hook key. A site without a name has the empty name.
type siteName struct {
	site interp.HookSite
	name string
}

// hookTable dispatches a hook site to the hooks keyed there. Each
// bucket lists its hooks' indexes in the table's order (ID order), and
// hooks of different keys never match the same site, so asking a site's
// bucket in order is asking every hook in order: the first override still
// wins. The buckets share one index array, one group per key, in key
// order: by site, then by API name. A site's groups are found by
// indexing with the site; a named site's group by binary search over
// that site's names.
type hookTable struct {
	fns    []interp.Hook       // the hooks' Fn, table order
	order  []int32             // indexes into fns, grouped by key
	groups [numSites + 1]int32 // site s's groups are groups[s] to groups[s+1]-1
	names  []string            // group g's API name ("" at an unnamed site)
	ends   []int32             // group g ends at order[ends[g]], where g+1 starts
}

// newHookTable builds the table over defects' hooks, in slice order.
func newHookTable(defects []*Defect) hookTable {
	t := hookTable{fns: make([]interp.Hook, len(defects)), order: make([]int32, len(defects))}
	for i, d := range defects {
		t.fns[i] = d.Hook.Fn
		t.order[i] = int32(i)
	}
	key := func(i int32) siteName {
		h := defects[i].Hook
		if !named(h.Site) {
			return siteName{site: h.Site}
		}
		return siteName{h.Site, h.Name}
	}
	slices.SortStableFunc(t.order, func(a, b int32) int {
		ka, kb := key(a), key(b)
		return cmp.Or(cmp.Compare(ka.site, kb.site), strings.Compare(ka.name, kb.name))
	})
	for p, i := range t.order {
		k := key(i)
		if p+1 < len(t.order) && key(t.order[p+1]) == k {
			continue
		}
		t.names = append(t.names, k.name) // p ends k's group
		t.ends = append(t.ends, int32(p+1))
		t.groups[k.site+1]++
	}
	for s := range numSites {
		t.groups[s+1] += t.groups[s]
	}
	return t
}

// bucket returns the indexes of the hooks keyed at ctx's site.
func (t *hookTable) bucket(ctx *interp.HookCtx) []int32 {
	g, end := t.groups[ctx.Site], t.groups[ctx.Site+1]
	if named(ctx.Site) {
		j, ok := slices.BinarySearch(t.names[g:end], ctx.Name)
		if !ok {
			return nil
		}
		g += int32(j)
	} else if g == end {
		return nil
	}
	start := int32(0)
	if g > 0 {
		start = t.ends[g-1]
	}
	return t.order[start:t.ends[g]]
}
