package engines

import (
	"sort"

	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
)

// Probe runs one mode's base configuration, interp.Config{Strict}, with a
// recording hook over the union of several members' hook defects. Each
// member is a hook set run in the probe's mode over the program the probe
// runs (see PreparedTestbed.TakesBaseParse for when a member's parse is
// the probe's). At each hook site the recording hook asks every defect
// keyed there (the union's hookTable) whether its trigger matches
// (interp.HookCtx.Probe) and never intervenes, so the probe run
// is the run of a defect-free member. A member none of whose defects
// matched would have followed the probe's execution step for step: by
// induction over the run, each of its hook sites sees the same ctx and
// the same interpreter state, so its own chain returns nil there too
// (Defect.Hook's contract: probing is pure and over-approximates firing).
// Its result is therefore the probe's.
type Probe struct {
	cfg   interp.Config // the probe's config; the recorder is installed per run
	table hookTable     // the union of the members' hook defects, ID order
	masks [][]uint64    // per member: bit i set iff the table's hook i is one of its hooks
}

// Fired is the set of a probe run's hook defects whose trigger matched, a
// bitset over the probe's union. A zero Fired means no interpreter ran (a
// parse or early error).
type Fired struct {
	hooks []uint64
}

// NewProbe builds the probe for prepared testbeds of one mode; member i of
// the probe is members[i].
func NewProbe(members []*PreparedTestbed) *Probe {
	strict := members[0].Testbed.Strict
	sets := make([][]*Defect, len(members))
	for i, p := range members {
		if p.Testbed.Strict != strict {
			panic("engines: NewProbe over testbeds of different modes")
		}
		sets[i] = p.hooks
	}
	return newProbe(interp.Config{Strict: strict}, sets)
}

// newProbe builds a probe over hook sets that run under cfg.
func newProbe(cfg interp.Config, members [][]*Defect) *Probe {
	cfg.Hook = nil
	pr := &Probe{cfg: cfg}
	var hooks []*Defect // the union, ID order
	seen := map[*Defect]bool{}
	for _, m := range members {
		for _, d := range m {
			if !seen[d] {
				seen[d] = true
				hooks = append(hooks, d)
			}
		}
	}
	sort.Slice(hooks, func(i, j int) bool { return hooks[i].ID < hooks[j].ID })
	pr.table = newHookTable(hooks)
	index := make(map[*Defect]int, len(hooks))
	for i, d := range hooks {
		index[d] = i
	}
	words := (len(hooks) + 63) / 64
	pr.masks = make([][]uint64, len(members))
	for k, m := range members {
		mask := make([]uint64, words)
		for _, d := range m {
			i := index[d]
			mask[i>>6] |= 1 << (i & 63)
		}
		pr.masks[k] = mask
	}
	return pr
}

// ExecParsed is PreparedTestbed.ExecParsed under the recording hook: it
// returns the probe's result and the hook defects that matched. Callers must
// have applied the members' PreParse interceptors to the source
// themselves; a member whose interceptor rejects it is not represented by
// the probe.
func (pr *Probe) ExecParsed(prog *ast.Program, err error, opts RunOptions) (ExecResult, Fired) {
	if res, static := staticResult(prog, err); static {
		return res, Fired{}
	}
	cfg := pr.cfg
	fired := Fired{hooks: make([]uint64, (len(pr.table.fns)+63)/64)}
	if len(pr.table.fns) > 0 {
		cfg.Hook = pr.recorder(fired.hooks)
	}
	res := runRealm(cfg, prog, opts)
	return res, fired
}

// recorder is the probe's hook: every defect keyed at the site whose
// trigger has not matched yet is asked about it, and the answer is
// recorded, never applied.
func (pr *Probe) recorder(fired []uint64) interp.Hook {
	t := &pr.table
	return func(ctx *interp.HookCtx) *interp.Override {
		b := t.bucket(ctx)
		if len(b) == 0 {
			return nil
		}
		ctx.Probe = true
		for _, i := range b {
			if fired[i>>6]&(1<<(i&63)) == 0 && t.fns[i](ctx) != nil {
				fired[i>>6] |= 1 << (i & 63)
			}
		}
		ctx.Probe = false
		return nil
	}
}

// Quiet reports whether none of member i's hook defects matched in the
// run that produced fired. A member that also runs the probe's program
// takes the probe's result.
func (pr *Probe) Quiet(i int, fired Fired) bool {
	for w, f := range fired.hooks {
		if pr.masks[i][w]&f != 0 {
			return false
		}
	}
	return true
}
