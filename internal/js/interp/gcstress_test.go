package interp_test

import (
	"runtime/debug"
	"strings"
	"testing"

	"comfort/internal/js/builtins"
	"comfort/internal/js/compile"
	"comfort/internal/js/interp"
	"comfort/internal/js/parser"
	"comfort/internal/js/resolve"
)

// gcStressCases are string-heavy programs whose intermediate strings are
// reachable only through Values (substrings of dropped concatenations,
// JSON round trips, regex results) while garbage keeps the collector
// busy. The expected outputs were derived independently of this
// interpreter.
var gcStressCases = []struct {
	name, src, want string
}{
	{"concat-slice", `
var s = "";
for (var i = 0; i < 3000; i++) { s = s + String.fromCharCode(97 + i % 26); }
var keep = [];
for (var j = 0; j < 300; j++) { keep.push(("<" + j + ":" + s + ">").substring(1, 8)); }
var tails = [];
for (var i = 0; i < 400; i++) { tails.push(("head" + i + "-" + "0123456789".repeat(3)).slice(-(i % 30 + 1))); }
var junk = [];
for (var k = 0; k < 2000; k++) { junk.push({a: "v" + k, b: [k, k + 1]}); }
print(s.length, s.slice(0, 28), s.slice(-5));
print(keep[0], keep[7], keep[299], keep.length);
print(keep.join("").length);
var total = 0;
for (var i = 0; i < tails.length; i++) { total += tails[i].length; }
print(tails[0], tails[29], tails[399], total);
`, `3000 abcdefghijklmnopqrstuvwxyzab fghij
0:abcde 7:abcde 299:abc 300
2100
9 012345678901234567890123456789 0123456789 6100`},
	{"json", `
var recs = [];
for (var i = 0; i < 150; i++) {
  recs.push({id: i, name: "n" + i + "-" + "abcdefghij".substring(i % 10), tags: ["t" + i % 7, "u"]});
}
var text = JSON.stringify(recs);
recs = null;
var back = JSON.parse(text);
var names = [];
for (var i = 0; i < back.length; i += 37) { names.push(back[i].name + "/" + back[i].tags[0]); }
print(text.length, names.join(","));
print(JSON.stringify(back[149]));
`, `7206 n0-abcdefghij/t0,n37-hij/t2,n74-efghij/t4,n111-bcdefghij/t6,n148-ij/t1
{"id":149,"name":"n149-j","tags":["t2","u"]}`},
	{"regex", `
var out = [];
for (var i = 0; i < 200; i++) {
  var src = "a" + i + "b" + (i * 7) + "c";
  out.push(src.replace(/\d+/g, "#") + "|" + src.match(/\d+/g).join("+") + "|" + src.split(/[a-c]/).join("."));
}
print(out[0]); print(out[13]); print(out[199]); print(out.join("").length);
`, `a#b#c|0+0|.0.0.
a#b#c|13+91|.13.91.
a#b#c|199+1393|.199.1393.
4460`},
}

// TestStringValuesSurviveGC runs the string-traffic programs on both
// evaluators with the collector running almost continuously. Value keeps
// a string as a raw data pointer and length, so a pointer the collector
// failed to trace would surface here as corrupted output.
func TestStringValuesSurviveGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	for _, c := range gcStressCases {
		for _, compiled := range []bool{false, true} {
			prog, err := parser.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			in := builtins.NewRuntime(interp.Config{Fuel: 10_000_000})
			if compiled {
				resolve.Program(prog)
				compile.Program(prog)
				err = compile.Of(prog).Run(in)
			} else {
				err = in.Run(prog)
			}
			if err != nil {
				t.Fatalf("%s (compiled %v): %v", c.name, compiled, err)
			}
			if got := strings.TrimSpace(in.Out.String()); got != c.want {
				t.Errorf("%s (compiled %v):\ngot:  %s\nwant: %s", c.name, compiled, got, c.want)
			}
		}
	}
}
