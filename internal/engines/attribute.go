package engines

// DivergesRunners is Diverges under the name the benchmark harness calls;
// single-defect runners are PreparedTestbeds (see NewDefectRunner).
func DivergesRunners(a, b *PreparedTestbed, opts RunOptions) func(src string) bool {
	return Diverges(a, b, opts)
}

// Attribute identifies which seeded defects of the testbed's version are
// responsible for a divergence observed on src: each active defect that
// could have changed the run is re-run in isolation (NewDefectRunner)
// against the defect-free reference. The reference runs as a Probe over
// the defects without a PreParse interceptor, under the scheduler's rule:
// such a defect is known to reproduce the reference result, and is not
// re-run, when its trigger never matched and it takes the reference's
// parse (TakesBaseParse). The re-run candidates share compiled programs through
// one sharedParse, as in Diverges, so a witness is parsed (and compiled)
// once per distinct parse. Each re-run candidate still executes with
// exactly its own config, hook and pre-parse gate.
func Attribute(src string, tb Testbed, opts RunOptions) []*Defect {
	active := tb.Prepare().ActiveDefects()
	var probed [][]*Defect
	for _, d := range active {
		if d.PreParse == nil {
			probed = append(probed, hookDefects([]*Defect{d}, tb.Strict))
		}
	}
	sh := sharedParse{src: src}
	ref := NewDefectRunner(nil, tb.Strict)
	probe := newProbe(ref.baseCfg, probed)
	prog, err := sh.parse(ref)
	refRes, fired := probe.ExecParsed(prog, err, opts)
	var out []*Defect
	member := 0 // index of d among the probe's members
	for _, d := range active {
		r := NewDefectRunner(d, tb.Strict)
		if d.PreParse == nil {
			quiet := probe.Quiet(member, fired) && r.TakesBaseParse(err)
			member++
			if quiet {
				continue
			}
		}
		if sh.run(r, opts).Key() != refRes.Key() {
			out = append(out, d)
		}
	}
	return out
}
