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
// exactly its own config, hook and pre-parse gate. The probe and the
// runners depend only on the testbed and are built once per prepared
// testbed (attribution).
func Attribute(src string, tb Testbed, opts RunOptions) []*Defect {
	p := tb.Prepare()
	at := p.attribution()
	sh := sharedParse{src: src}
	prog, err := sh.parse(at.ref)
	refRes, fired := at.probe.ExecParsed(prog, err, opts)
	var out []*Defect
	member := 0 // index of d among the probe's members
	for i, d := range p.defects {
		r := at.runners[i]
		if d.PreParse == nil {
			quiet := at.probe.Quiet(member, fired) && r.TakesBaseParse(err)
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

// attributor is what Attribute needs of a testbed beyond its defects: the
// mode's reference, the probe over the active defects without a PreParse
// interceptor (one member each, in catalog order), and each active
// defect's single-defect runner.
type attributor struct {
	ref     *PreparedTestbed
	probe   *Probe
	runners []*PreparedTestbed // runners[i] runs p.defects[i] alone
}

// attribution returns the testbed's attributor, built on first use.
func (p *PreparedTestbed) attribution() *attributor {
	p.attrOnce.Do(func() {
		strict := p.Testbed.Strict
		at := &attributor{ref: NewDefectRunner(nil, strict)}
		var probed [][]*Defect
		for _, d := range p.defects {
			at.runners = append(at.runners, NewDefectRunner(d, strict))
			if d.PreParse == nil {
				probed = append(probed, hookDefects([]*Defect{d}, strict))
			}
		}
		at.probe = newProbe(at.ref.baseCfg, probed)
		p.attr = at
	})
	return p.attr
}
