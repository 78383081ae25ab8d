package engines

import (
	"sort"

	"comfort/internal/js/ast"
	"comfort/internal/js/interp"
)

// Probe runs one configuration with a recording hook over the union of
// several members' hook defects. Each member is a hook set that would run
// under exactly the probe's config (same mode, same Configure deltas, same
// parser options) with only its own hooks installed. The recording hook
// asks every defect whether its trigger matches (interp.HookCtx.Probe) and
// never intervenes, so the probe run is the run of a member whose hooks all
// return nil. A member none of whose defects matched would have followed
// the probe's execution step for step: by induction over the run, each of
// its hook sites sees the same ctx and the same interpreter state, so its
// own chain returns nil there too (Defect.Hook's contract: probing is pure
// and over-approximates firing). Its result is therefore the probe's, up
// to the evaluator diagnostics ExecResult.Semantics clears.
type Probe struct {
	cfg   interp.Config // the members' shared config; the recorder is installed per run
	hooks []*Defect     // union of the members' hook defects, ID order
	masks [][]uint64    // per member: bit i set iff hooks[i] is one of its hooks
}

// Fired is the set of a probe's hook defects whose trigger matched during
// one run, a bitset over the probe's union. A nil Fired means no
// interpreter ran (a parse or early error).
type Fired []uint64

func (f Fired) has(i int) bool { return f[i>>6]&(1<<(i&63)) != 0 }

// NewProbe builds the probe for prepared testbeds that share one ProbeKey;
// member i of the probe is members[i].
func NewProbe(members []*PreparedTestbed) *Probe {
	sets := make([][]*Defect, len(members))
	for i, p := range members {
		if p.group != members[0].group {
			panic("engines: NewProbe over testbeds from different probe groups")
		}
		sets[i] = p.hooks
	}
	return newProbe(members[0].baseCfg, sets)
}

func newProbe(cfg interp.Config, members [][]*Defect) *Probe {
	cfg.Hook = nil
	pr := &Probe{cfg: cfg}
	seen := map[*Defect]bool{}
	for _, m := range members {
		for _, d := range m {
			if !seen[d] {
				seen[d] = true
				pr.hooks = append(pr.hooks, d)
			}
		}
	}
	sort.Slice(pr.hooks, func(i, j int) bool { return pr.hooks[i].ID < pr.hooks[j].ID })
	index := make(map[*Defect]int, len(pr.hooks))
	for i, d := range pr.hooks {
		index[d] = i
	}
	words := (len(pr.hooks) + 63) / 64
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
// returns the probe's result and the set of hook defects whose trigger
// matched. Callers must have applied the members' PreParse interceptors
// to the source themselves; a member whose interceptor rejects it is not
// represented by the probe.
func (pr *Probe) ExecParsed(prog *ast.Program, err error, opts RunOptions) (ExecResult, Fired) {
	if res, static := staticResult(prog, err); static {
		return res, nil
	}
	cfg := pr.cfg
	fired := make(Fired, (len(pr.hooks)+63)/64)
	if len(pr.hooks) > 0 {
		cfg.Hook = pr.recorder(fired)
	}
	return runRealm(cfg, prog, opts), fired
}

// recorder is the probe's hook: every defect whose trigger has not matched
// yet is asked about the site, and the answer is recorded, never applied.
func (pr *Probe) recorder(fired Fired) interp.Hook {
	hooks := pr.hooks
	return func(ctx *interp.HookCtx) *interp.Override {
		ctx.Probe = true
		for i, d := range hooks {
			if !fired.has(i) && d.Hook(ctx) != nil {
				fired[i>>6] |= 1 << (i & 63)
			}
		}
		ctx.Probe = false
		return nil
	}
}

// Quiet reports whether none of member i's hook defects matched during
// the run that produced fired: the member's result is the probe's.
func (pr *Probe) Quiet(i int, fired Fired) bool {
	if fired == nil {
		return true
	}
	for w, m := range pr.masks[i] {
		if m&fired[w] != 0 {
			return false
		}
	}
	return true
}
