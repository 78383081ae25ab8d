package engines

import (
	"fmt"

	"comfort/internal/js/ast"
	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
)

// This file is the panic-isolation layer: every physical interpreter run —
// the scheduler's behaviour-class executions and probes, single-defect
// attribution and reduction replays, and the direct Run paths — funnels
// through runRealm, so an evaluator panic anywhere in the interpreter
// surfaces as a classified OutcomeCrash result instead of killing the
// campaign process. An interpreter crash is a finding: the result is
// deduplicated, attributed and reported like any other divergence. The
// interpreter is deterministic, so a panicking (config, program, fuel,
// seed) combination panics identically — same message, same partial
// output, same fuel — on every run, which keeps the crash-as-finding
// results byte-identical across workers, shards and checkpoint resumes.

// runRealm is the package's single realm entry point and the shared tail
// of every executor: it fills the per-run fields of cfg (the testbed's
// config deltas and hook, or a probe's recorder) from opts — fuel, seed,
// watchdog, the coverage recorder and the object layout — builds the
// realm, executes the (possibly thunk-compiled) program and classifies the
// outcome, converting evaluator panics into crash results. When
// opts.configRead is set it receives the interpreter's ConfigRead bit,
// panicked run or not.
func runRealm(cfg interp.Config, prog *ast.Program, opts RunOptions) (res ExecResult) {
	cfg.Fuel = opts.Fuel
	cfg.Seed = opts.Seed
	cfg.Watchdog = opts.Watchdog
	cfg.DisableShapes = opts.dictObjects
	in := builtins.NewRuntime(cfg)
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
	res.ICHit, res.ICMiss, res.ICMega = in.ICStats()
	classifyRunError(&res, runErr)
	return res
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
