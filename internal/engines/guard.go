package engines

import (
	"fmt"
	"sync"

	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
)

// This file is the realm pool and the panic-isolation layer: every
// physical interpreter run — the scheduler's behaviour-class executions
// and probes, single-defect attribution and reduction replays, and the
// direct Run paths — funnels through runRealm, so realms are recycled
// and reset from the template, and an evaluator panic anywhere in the
// interpreter surfaces as a classified OutcomeCrash result instead of
// killing the campaign process. An interpreter crash is a finding: the
// result is deduplicated, attributed and reported like any other
// divergence. The interpreter is deterministic, so a panicking (config,
// program, fuel, seed) combination panics identically — same message,
// same partial output, same fuel — on every run, which keeps the
// crash-as-finding results byte-identical across workers, shards and
// checkpoint resumes.

// runRealm is the package's single realm entry point and the shared tail
// of every executor: it fills the per-run fields of cfg (the testbed's
// config deltas and hook, or a probe's recorder) from opts — fuel, seed,
// watchdog and the object layout — takes a pristine realm from the pool,
// runs the program on it (execRealm) and hands the realm back.
func runRealm(cfg interp.Config, prog *ast.Program, opts RunOptions) ExecResult {
	cfg = realmConfig(cfg, opts)
	in := newRealm(cfg)
	res := execRealm(in, prog, opts)
	releaseRealm(in, cfg)
	return res
}

// realmConfig returns cfg with the per-run fields filled from opts.
func realmConfig(cfg interp.Config, opts RunOptions) interp.Config {
	cfg.Fuel = opts.Fuel
	cfg.Seed = opts.Seed
	cfg.Watchdog = opts.Watchdog
	cfg.DisableShapes = opts.dictObjects
	return cfg
}

// execRealm executes the (possibly thunk-compiled) program on the pristine
// realm in with opts' coverage recorder and classifies the outcome,
// converting evaluator panics into crash results. When opts.configRead is
// set it receives the interpreter's ConfigRead bit, panicked run or not.
func execRealm(in *interp.Interp, prog *ast.Program, opts RunOptions) (res ExecResult) {
	in.Cov = opts.Cov
	defer func() {
		if rec := recover(); rec != nil {
			res = ExecResult{
				Outcome:  OutcomeCrash,
				Output:   in.Out.String(),
				Error:    panicMessage(rec),
				ErrName:  "panic",
				FuelUsed: in.FuelUsed(),
				Panic:    true,
			}
		}
		if opts.configRead != nil {
			*opts.configRead = in.ConfigRead()
		}
	}()
	runErr := runProgramInjected(in, prog, opts)
	res = ExecResult{Output: in.Out.String(), FuelUsed: in.FuelUsed()}
	classifyRunError(&res, runErr)
	return res
}

// realms recycles shape-layout interpreters between runs. A run's result
// holds strings and numbers only, so once execRealm returns nothing refers
// to the interpreter or its objects, and the next run resets it from the
// template (interp.Template.Reset) instead of allocating a new realm. A
// panicked run's realm is recycled too: the reset rebuilds every field.
// Until that reset a pooled realm keeps its last run's output and heap
// alive; sync.Pool frees a realm that stays idle for two collections.
var realms sync.Pool

// newRealm returns a pristine realm for cfg: a recycled one reset from the
// template, or a new one. The dictionary-layout oracle realm is always new.
func newRealm(cfg interp.Config) *interp.Interp {
	if !cfg.DisableShapes {
		if in, ok := realms.Get().(*interp.Interp); ok {
			builtins.ResetRuntime(in, cfg)
			return in
		}
	}
	return builtins.NewRuntime(cfg)
}

// releaseRealm hands a finished run's realm back for reuse.
func releaseRealm(in *interp.Interp, cfg interp.Config) {
	if !cfg.DisableShapes {
		realms.Put(in)
	}
}

// runProgramInjected is runProgram behind the fault-injection gate: an
// armed InjectPanic fires inside the guarded region, exactly where a real
// evaluator panic would originate.
func runProgramInjected(in *interp.Interp, prog *ast.Program, opts RunOptions) error {
	if opts.InjectPanic {
		panic("faultinject: injected evaluator panic")
	}
	if cp := compile.Of(prog); cp != nil {
		return cp.Run(in)
	}
	return in.Run(prog)
}

// panicMessage renders a recovered panic value deterministically (runtime
// errors and string panics carry no addresses or timestamps).
func panicMessage(rec interface{}) string {
	return fmt.Sprintf("panic: %v", rec)
}
