package engines

import (
	"strings"

	"comfort/internal/js/interp"
)

// v8 seeds the 4 V8 defects (Table 2: 4 submitted / 4 verified / 3 fixed /
// 1 in Test262; Table 3: all attributed to V8.5).
func (b *catalogBuilder) v8() {
	// The paper's Listing 1: defineProperty on a non-configurable array
	// length silently succeeds instead of throwing TypeError.
	b.add(&Defect{
		ID: "v8-001", Engine: "V8", AttrVersion: "V8.5",
		Component: Implementation, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, Test262: true, New: true,
		Note: "Listing 1: no TypeError when redefining non-configurable array length",
		Witness: `var foo = function() {
  var arrobj = [0, 1];
  Object.defineProperty(arrobj, "length", {value: 1, configurable: true});
  print("no throw");
};
foo();`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[1].Kind() == interp.KindString &&
				ctx.Args[1].Str() == "length" && ctx.Args[0].IsObject() && ctx.Args[0].Obj().IsArray()
		}, noThrow(interp.Undefined())),
	})
	// Strict-mode store to a frozen object does not throw.
	b.add(&Defect{
		ID: "v8-002", Engine: "V8", AttrVersion: "V8.5",
		Component: StrictModeComp, APIType: "Object", API: "propset",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		StrictOnly: true, WitnessStrict: true,
		Note: "strict mode: assignment to frozen object property is silently ignored",
		Witness: `"use strict";
var o = Object.freeze({a: 1});
o.a = 2;
print(o.a);`,
		Hook: onPropSet(func(ctx *interp.HookCtx) bool {
			return ctx.Obj.Integrity() == interp.Frozen
		}, func(ctx *interp.HookCtx) *interp.Override {
			return &interp.Override{Handled: true}
		}),
	})
	// ToInt32 of negative fractional operands rounds instead of truncating
	// in the bitwise-OR fast path.
	b.add(&Defect{
		ID: "v8-003", Engine: "V8", AttrVersion: "V8.5",
		Component: CodeGen, APIType: "other", API: "Math.trunc",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note:    "Math.trunc of negative fractions rounds toward -Infinity",
		Witness: `print(Math.trunc(-2.5), Math.trunc(-0.5));`,
		Hook: onAPI("Math.trunc", argNeg(0), retFn(func(ctx *interp.HookCtx) interp.Value {
			f := ctx.Args[0].Num()
			return interp.Number(float64(int64(f)) - boolToF(f != float64(int64(f))))
		})),
	})
	// Verified but unfixed (the V8 CodeGen bug still open at paper time):
	// parseInt mishandles radix 16 detection after a unary minus.
	b.add(&Defect{
		ID: "v8-004", Engine: "V8", AttrVersion: "V8.5",
		Component: CodeGen, APIType: "other", API: "parseInt",
		Channel: ChannelGen, Verified: true, DevFixed: false, New: true,
		Note:    "parseInt(\"-0x10\") parses as hex 0 instead of NaN-free -16",
		Witness: `print(parseInt("-0x10"));`,
		Hook: onAPI("parseInt", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 0 && ctx.Args[0].Kind() == interp.KindString &&
				strings.HasPrefix(ctx.Args[0].Str(), "-0x")
		}, ret(interp.Number(0))),
	})
}

// graaljs seeds the 2 Graaljs defects (2/2/2/0).
func (b *catalogBuilder) graaljs() {
	// Shares the Listing-1 defineProperty bug with V8.
	b.add(&Defect{
		ID: "graal-001", Engine: "Graaljs", AttrVersion: "v20.1.0",
		Component: Implementation, APIType: "Object", API: "Object.defineProperty",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: true,
		Note: "Listing 1 (Graaljs variant): no TypeError for non-configurable length redefinition",
		Witness: `var arrobj = [0, 1];
Object.defineProperty(arrobj, "length", {value: 1, configurable: true});
print("no throw");`,
		Hook: onAPI("Object.defineProperty", func(ctx *interp.HookCtx) bool {
			return len(ctx.Args) > 1 && ctx.Args[1].Kind() == interp.KindString &&
				ctx.Args[1].Str() == "length" && ctx.Args[0].IsObject() && ctx.Args[0].Obj().IsArray()
		}, noThrow(interp.Undefined())),
	})
	// Shares the Listing-5 TypedArray.set(string) bug with old JSC.
	b.add(&Defect{
		ID: "graal-002", Engine: "Graaljs", AttrVersion: "v20.1.0",
		Component: CodeGen, APIType: "TypedArray", API: "Uint8Array.prototype.set",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: true,
		Note: "Listing 5 (Graaljs variant): TypedArray.set rejects String array-likes",
		Witness: `var e = '123';
var A = new Uint8Array(5);
A.set(e);
print(A);`,
		Hook: onAPI("Uint8Array.prototype.set", argString(0),
			throwE("TypeError", "invalid argument type in TypedArray.set")),
	})
}

// spiderMonkey seeds the 3 SpiderMonkey defects (3/3/3/0) — all fixed in
// later versions, attributed per Table 3 to v1.7, v38.3 and v52.9.
func (b *catalogBuilder) spiderMonkey() {
	// The paper's Listing 3: Uint32Array(3.14) throws TypeError instead of
	// converting via ToInteger. Present before v52.9.
	b.add(&Defect{
		ID: "sm-001", Engine: "SpiderMonkey", AttrVersion: "v1.7", FixedIn: "v52.9",
		Component: CodeGen, APIType: "TypedArray", API: "new Uint32Array",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		Note: "Listing 3: Uint32Array length not converted with ToInteger",
		Witness: `var foo = function(length) {
  var array = new Uint32Array(length);
  print(array.length);
};
var parameter = 3.14;
foo(parameter);`,
		Hook: onConstruct("Uint32Array", argFrac(0),
			throwE("TypeError", "invalid arguments")),
	})
	// String.prototype.repeat(0) returns " " instead of "".
	b.add(&Defect{
		ID: "sm-002", Engine: "SpiderMonkey", AttrVersion: "v38.3", FixedIn: "v60.1.1",
		Component: Implementation, APIType: "String", API: "String.prototype.repeat",
		Channel: ChannelGen, Verified: true, DevFixed: true, New: false,
		Note:    "repeat(0) returns a single space instead of the empty string",
		Witness: `print("[" + "ab".repeat(0) + "]");`,
		Hook:    onAPI("String.prototype.repeat", argZero(0), ret(interp.String(" "))),
	})
	// isFinite coerces null to NaN (should be 0 → finite).
	b.add(&Defect{
		ID: "sm-003", Engine: "SpiderMonkey", AttrVersion: "v52.9", FixedIn: "gecko-dev",
		Component: Implementation, APIType: "other", API: "isFinite",
		Channel: ChannelSpecData, Verified: true, DevFixed: true, New: false,
		Note:    "isFinite(null) returns false; ToNumber(null) must be +0",
		Witness: `print(isFinite(null));`,
		Hook:    onAPI("isFinite", argNull(0), ret(interp.Bool(false))),
	})
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// lenientEvalHook marks eval parsing as lenient (accepting programs the
// spec rejects) — the Listing-7 defect family.
func lenientEvalHook(srcContains string) *Hook {
	return &Hook{Site: interp.HookEvalParse, Fn: func(ctx *interp.HookCtx) *interp.Override {
		if srcContains != "" && !strings.Contains(ctx.Src, srcContains) {
			return nil
		}
		if ctx.Probe {
			return probeMatch
		}
		return &interp.Override{Handled: true}
	}}
}

// rejectSource builds a PreParse function flagging programs that contain a
// construct the defective parser cannot handle.
func rejectSource(substr, msg string) func(string) string {
	return func(src string) string {
		if strings.Contains(src, substr) {
			return msg
		}
		return ""
	}
}
