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
// the defects that only hook (no Configure, ParserOpts or PreParse), so a
// hook-only defect whose trigger never matched is known to reproduce the
// reference result and is not re-run. Candidates whose resolved parser
// options coincide share one compiled program (sharedParse, as in
// Diverges), so a witness is parsed (and compiled) once per distinct
// option fingerprint; only the handful of defects with parser
// interceptors pay their own parse. Each re-run candidate still executes
// with exactly its own config, hook and pre-parse gate.
func Attribute(src string, tb Testbed, opts RunOptions) []*Defect {
	active := tb.Prepare().ActiveDefects()
	var hookOnly [][]*Defect
	for _, d := range active {
		if onlyHooks(d) {
			hookOnly = append(hookOnly, hookDefects([]*Defect{d}, tb.Strict))
		}
	}
	sh := sharedParse{src: src}
	ref := NewDefectRunner(nil, tb.Strict)
	probe := newProbe(ref.baseCfg, hookOnly)
	prog, err := sh.parse(ref)
	refRes, fired := probe.ExecParsed(prog, err, opts)
	var out []*Defect
	member := 0 // index of d among the probe's members
	for _, d := range active {
		if onlyHooks(d) {
			quiet := probe.Quiet(member, fired)
			member++
			if quiet {
				continue
			}
		}
		if sh.run(NewDefectRunner(d, tb.Strict), opts).Key() != refRes.Key() {
			out = append(out, d)
		}
	}
	return out
}

// onlyHooks reports whether the defect acts through its hook alone: with
// no Configure, ParserOpts or PreParse it runs the reference config.
func onlyHooks(d *Defect) bool {
	return d.Configure == nil && d.ParserOpts == nil && d.PreParse == nil
}
