// Package engines models the ten JavaScript engine families under test.
// Each engine version is the shared interpreter plus the subset of the
// seeded defect catalog active in that version; normal and strict testbeds
// mirror the paper's 2× testbed setup. The catalog's 158 defects reproduce
// the per-engine, per-version, per-component, per-API-type and per-channel
// bug distributions of the paper's Tables 2-5 and Figure 7.
package engines

import (
	"sync"

	"comfort/internal/js/interp"
)

// Version identifies one engine build (a row of Table 1).
type Version struct {
	Engine  string
	Name    string // human version, e.g. "v1.7.12"
	Build   string // build hash / number
	Release string // release date, e.g. "Jan. 2020"
	ES      string // supported ECMAScript edition
	rank    int    // position in the engine's oldest→newest ordering
}

// ID returns the unique engine-version identifier.
func (v Version) ID() string { return v.Engine + "/" + v.Name + "@" + v.Build }

// Engine is one JS engine family with its tested versions, oldest first.
type Engine struct {
	Name     string
	Versions []Version
}

// Latest returns the newest tested version.
func (e *Engine) Latest() Version { return e.Versions[len(e.Versions)-1] }

// versionRow is the compact Table 1 data format.
type versionRow struct{ name, build, release, es string }

func mkEngine(name string, rows []versionRow) *Engine {
	e := &Engine{Name: name}
	for i, r := range rows {
		e.Versions = append(e.Versions, Version{
			Engine: name, Name: r.name, Build: r.build,
			Release: r.release, ES: r.es, rank: i,
		})
	}
	return e
}

var (
	allOnce     sync.Once
	allEngines  []*Engine
	allTestbeds []Testbed
)

// All returns the ten engine families with the version inventory of
// Table 1 (oldest→newest within each engine). JerryScript additionally
// carries the v1.0 build that the paper's Table 3 references. The
// inventory is built once and memoised; callers receive a fresh top-level
// slice over the shared (immutable) Engine values.
func All() []*Engine {
	allOnce.Do(buildInventory)
	out := make([]*Engine, len(allEngines))
	copy(out, allEngines)
	return out
}

func buildInventory() {
	allEngines = []*Engine{
		mkEngine("V8", []versionRow{
			{"V8.5", "0e44fef", "Apr. 2019", "ES2019"},
			{"V8.5", "e39c701", "Aug. 2019", "ES2019"},
			{"V8.5", "d891c59", "Jun. 2020", "ES2019"},
		}),
		mkEngine("ChakraCore", []versionRow{
			{"v1.11.8", "dbfb5bd", "Apr. 2019", "ES2019"},
			{"v1.11.12", "e1f5b03", "Aug. 2019", "ES2019"},
			{"v1.11.13", "8fcb0f1", "Aug. 2019", "ES2019"},
			{"v1.11.16", "eaaf7ac", "Nov. 2019", "ES2019"},
			{"v1.11.19", "5ed2985", "May 2020", "ES2019"},
		}),
		mkEngine("JSC", []versionRow{
			{"244445", "b3fa4c5", "Apr. 2019", "ES2019"},
			{"246135", "d940b47", "Jun. 2019", "ES2019"},
			{"251631", "b96bf75", "Oct. 2019", "ES2019"},
			{"261782", "dbae081", "May 2020", "ES2019"},
		}),
		mkEngine("SpiderMonkey", []versionRow{
			{"v1.7", "js-1.7.0", "Sep. 2017", "ES2018/2019"},
			{"v38.3", "mozjs38.3.0", "Oct. 2017", "ES2018/2019"},
			{"v52.9", "mozjs52.9.1pre1", "Jul. 2018", "ES2018/2019"},
			{"v60.1.1", "mozjs60.1.1pre3", "Jul. 2018", "ES2018/2019"},
			{"gecko-dev", "201255a", "Jun. 2019", "ES2018/2019"},
			{"gecko-dev", "2c619e2", "May 2020", "ES2018/2019"},
			{"v78.0", "C69.0a1", "Jun. 2020", "ES2018/2019"},
		}),
		mkEngine("Rhino", []versionRow{
			{"v1.7R3", "d1a8338", "Apr. 2011", "ES2015"},
			{"v1.7R4", "82ffb8f", "Jun. 2012", "ES2015"},
			{"v1.7R5", "584e7ec", "Jan. 2015", "ES2015"},
			{"v1.7.9", "3ee580e", "Mar. 2018", "ES2015"},
			{"v1.7.10", "1692f5f", "May 2019", "ES2015"},
			{"v1.7.11", "f0e1c63", "May 2019", "ES2015"},
			{"v1.7.12", "d4021ee", "Jan. 2020", "ES2015"},
		}),
		mkEngine("Nashorn", []versionRow{
			{"v1.7.6", "JDK7u65", "May 2014", "ES2011/2015"},
			{"v1.8.0_201", "JDK8u201", "Jan. 2019", "ES2011/2015"},
			{"v11.0.3", "JDK11.0.3", "Mar. 2019", "ES2011/2015"},
			{"v12.0.1", "JDK12.0.1", "Apr. 2019", "ES2011/2015"},
			{"v13.0.1", "JDK13.0.1", "Sep. 2019", "ES2011/2015"},
		}),
		mkEngine("Hermes", []versionRow{
			{"v0.1.1", "3ed8340", "Jul. 2019", "ES2015"},
			{"v0.3.0", "3826084", "Sep. 2019", "ES2015"},
			{"v0.4.0", "044cf4b", "Dec. 2019", "ES2015"},
			{"v0.6.0", "b6530ae", "May 2020", "ES2015"},
		}),
		mkEngine("JerryScript", []versionRow{
			{"v1.0", "legacy10", "Jan. 2017", "ES2011/2015"},
			{"v2.0", "e944cda", "Apr. 2019", "ES2011/2015"},
			{"v2.0", "40f7b1c", "Apr. 2019", "ES2011/2015"},
			{"v2.0", "b6fc4e1", "May 2019", "ES2011/2015"},
			{"v2.0", "351acdf", "Jun. 2019", "ES2011/2015"},
			{"v2.1.0", "9ab4872", "Sep. 2019", "ES2011/2015"},
			{"v2.1.0", "84a56ef", "Oct. 2019", "ES2011/2015"},
			{"v2.2.0", "7df87b7", "Oct. 2019", "ES2011/2015"},
			{"v2.2.0", "996bf76", "Nov. 2019", "ES2011/2015"},
			{"v2.3.0", "bd1c4df", "May 2020", "ES2011/2015"},
		}),
		mkEngine("QuickJS", []versionRow{
			{"2019-07-09", "9ccefbf", "Jul. 2019", "ES2019"},
			{"2019-09-01", "3608b16", "Sep. 2019", "ES2019"},
			{"2019-09-18", "6e76fd9", "Sep. 2019", "ES2019"},
			{"2019-10-27", "eb34626", "Oct. 2019", "ES2019"},
			{"2020-01-05", "91459fb", "Jan. 2020", "ES2019"},
			{"2020-04-12", "1722758", "Apr. 2020", "ES2019"},
		}),
		mkEngine("Graaljs", []versionRow{
			{"v20.1.0", "299f61f", "May 2020", "ES2020"},
		}),
	}
	for _, e := range allEngines {
		for _, v := range e.Versions {
			allTestbeds = append(allTestbeds, Testbed{Version: v}, Testbed{Version: v, Strict: true})
		}
	}
}

// ByName returns the engine family with the given name.
func ByName(name string) (*Engine, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// FindVersion resolves an engine name plus version string (matching either
// Name or Build) to a Version.
func FindVersion(engine, version string) (Version, bool) {
	e, ok := ByName(engine)
	if !ok {
		return Version{}, false
	}
	for _, v := range e.Versions {
		if v.Name == version || v.Build == version {
			return v, true
		}
	}
	return Version{}, false
}

// Testbed is one engine-version in one execution mode (normal or strict),
// matching the paper's 102-testbed setup.
type Testbed struct {
	Version Version
	Strict  bool
}

// ID returns a unique testbed identifier.
func (tb Testbed) ID() string {
	mode := "normal"
	if tb.Strict {
		mode = "strict"
	}
	return tb.Version.ID() + "#" + mode
}

// Testbeds enumerates all testbeds: every version × {normal, strict}. The
// enumeration is memoised; callers receive a fresh slice.
func Testbeds() []Testbed {
	allOnce.Do(buildInventory)
	out := make([]Testbed, len(allTestbeds))
	copy(out, allTestbeds)
	return out
}

// LatestTestbeds returns one normal-mode testbed per engine's newest
// version — the configuration used for fuzzer-comparison experiments.
func LatestTestbeds() []Testbed {
	var out []Testbed
	for _, e := range All() {
		out = append(out, Testbed{Version: e.Latest()})
	}
	return out
}

// ExecOutcome classifies the result of running one test case on one
// testbed (the per-engine leaf states of the paper's Figure 5).
type ExecOutcome int

// Per-testbed outcomes.
const (
	OutcomePass ExecOutcome = iota
	OutcomeParseError
	OutcomeException
	OutcomeCrash
	OutcomeTimeout
)

func (o ExecOutcome) String() string {
	switch o {
	case OutcomePass:
		return "pass"
	case OutcomeParseError:
		return "parse-error"
	case OutcomeException:
		return "exception"
	case OutcomeCrash:
		return "crash"
	case OutcomeTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// ExecResult is the observable behaviour of one run; the differential
// oracles compare it whole with ==.
type ExecResult struct {
	Outcome  ExecOutcome
	Output   string // print() output
	Error    string // exception rendering (name: message) or parse error
	ErrName  string // exception constructor name for classification
	FuelUsed int64
	// EarlyError marks a pre-execution SyntaxError from the static
	// analyzer (Outcome is OutcomeParseError): the program violated a
	// static-semantics rule every testbed enforces identically. Part of
	// the observable semantics — both the cached report and the verdict
	// recomputed for an unanalyzed program must produce it
	// byte-identically.
	EarlyError bool
	// Panic marks an OutcomeCrash produced by the panic-isolation layer:
	// the evaluator panicked mid-run and the recover() converted it into a
	// classified crash instead of killing the process. The interpreter is
	// deterministic, so a panicking (defect, src, fuel, seed) panics — with
	// the same rendering, partial output and fuel — on every run.
	Panic bool
	// WallClock marks an OutcomeTimeout raised by the wall-clock watchdog
	// (interp.AbortDeadline) rather than fuel exhaustion: the case hung in
	// real time while its step budget still had headroom. Classification
	// treats such entries as deviant without the 2× fuel test — a hung
	// engine is anomalous no matter how little fuel it burned.
	WallClock bool
}

// Key renders the behaviour for differential comparison: two testbeds agree
// iff their keys are equal.
func (r ExecResult) Key() string {
	return r.Outcome.String() + "|" + r.Output + "|" + r.ErrName
}

// RunOptions parameterise a testbed execution.
type RunOptions struct {
	Fuel int64
	Seed int64
	Cov  *interp.Coverage
	// Watchdog is the wall-clock deadline probe threaded into
	// interp.Config.Watchdog (see there): polled every
	// interp.WatchdogStride fuel steps, a true return classifies the run
	// as a WallClock timeout. Nil disables the watchdog entirely.
	Watchdog func() bool
	// InjectPanic makes the execution panic inside the guarded evaluator
	// region — the fault-injection harness's hook for proving that the
	// panic-isolation layer converts evaluator panics into classified
	// crash results. Always false in normal operation.
	InjectPanic bool
	// dictObjects keeps objects on dictionary-mode property maps
	// (interp.Config.DisableShapes) — the reference object layout, the
	// one path no skipped parse pass can select.
	// PreparedTestbed.Exec honours it; only DictionaryObjects sets it.
	dictObjects bool
}

// DictionaryObjects returns opts with objects kept on dictionary-mode
// property maps — the reference object layout the differential path
// oracles compare the shape-mode default against, on a realm installed
// from scratch rather than cloned from the template.
// No production caller sets it.
func DictionaryObjects(opts RunOptions) RunOptions {
	opts.dictObjects = true
	return opts
}

// ActiveDefects returns the catalog defects present in the given version.
func ActiveDefects(v Version) []*Defect {
	var out []*Defect
	for _, d := range Catalog() {
		if d.ActiveIn(v) {
			out = append(out, d)
		}
	}
	return out
}

// Run executes src on the testbed and classifies the outcome. It is a thin
// wrapper over Prepare().Run — the active defect set, hook chain and option
// deltas are resolved once per version×mode and memoised.
func (tb Testbed) Run(src string, opts RunOptions) ExecResult {
	return tb.Prepare().Run(src, opts)
}

// ReferenceTestbed returns the defect-free reference testbed in the given
// mode; prepare it once to run many candidates against the conformance
// oracle (reduction predicates, witness replay).
func ReferenceTestbed(strict bool) Testbed {
	return Testbed{Version: Version{Engine: "Reference", Name: "spec", rank: 0}, Strict: strict}
}

// Reference runs src on the defect-free reference runtime (the conformance
// oracle used by witness tests and ground-truth accounting).
func Reference(src string, strict bool, opts RunOptions) ExecResult {
	return ReferenceTestbed(strict).Run(src, opts)
}
