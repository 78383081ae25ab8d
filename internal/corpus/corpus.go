// Package corpus embeds the JavaScript training data standing in for the
// paper's 140k-file GitHub corpus: realistic programs exercising the API
// surface the engines implement, the seed generation headers the language
// model is primed with, and the code fragments the assembly-based baseline
// fuzzers (CodeAlchemist, Montage, DIE) recombine.
package corpus

import "strings"

// Programs returns the embedded training programs.
func Programs() []string { return programs }

// Headers returns the seed generation headers: function openings collected
// automatically from the training programs (the paper harvests 2,000 such
// headers from its corpus) plus a hand-seeded base set.
func Headers() []string {
	seen := map[string]bool{}
	var out []string
	add := func(h string) {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, h := range headers {
		add(h)
	}
	for _, p := range programs {
		for _, line := range strings.Split(p, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasSuffix(trimmed, "{") &&
				(strings.HasPrefix(trimmed, "function ") ||
					(strings.HasPrefix(trimmed, "var ") && strings.Contains(trimmed, "= function"))) {
				add(trimmed)
			}
		}
	}
	return out
}

var headers = []string{
	"var a = function(assert) {",
	"var foo = function(str) {",
	"var foo = function(size) {",
	"var foo = function(num) {",
	"var foo = function() {",
	"function foo(str, start, len) {",
	"function compute(a, b) {",
	"function process(list) {",
	"function check(value) {",
	"function main() {",
	"var run = function(input) {",
	"var helper = function(obj) {",
	"var test = function(arr) {",
	"function formatName(first, last) {",
	"function sumArray(values) {",
	"var parse = function(text) {",
	"function makeCounter() {",
	"var convert = function(n) {",
	"function find(items, target) {",
	"var validate = function(s) {",
}

var programs = []string{
	// --- string manipulation ---
	`function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
var pre = "Name: ";
var len = 6;
var name = foo(s, pre.length, len);
print(name);`,

	`var foo = function(str) {
  var parts = str.split(",");
  var out = [];
  for (var i = 0; i < parts.length; i++) {
    out.push(parts[i].trim());
  }
  return out.join("|");
};
print(foo("a, b ,c"));`,

	`function formatName(first, last) {
  var full = first.charAt(0).toUpperCase() + first.slice(1);
  full = full + " " + last.toUpperCase();
  return full;
}
print(formatName("ada", "lovelace"));`,

	`var foo = function(str) {
  if (str.startsWith("http")) {
    return str.substring(7);
  }
  return str;
};
print(foo("http://example"));`,

	`var validate = function(s) {
  var trimmed = s.trim();
  if (trimmed.length === 0) {
    return "empty";
  }
  if (trimmed.indexOf(" ") !== -1) {
    return "has spaces";
  }
  return "ok";
};
print(validate("  hello  "));
print(validate("   "));`,

	`var foo = function(str) {
  var count = 0;
  for (var i = 0; i < str.length; i++) {
    if (str.charAt(i) === "a") {
      count++;
    }
  }
  return count;
};
print(foo("banana"));`,

	`var pad = function(n) {
  return String(n).padStart(2, "0");
};
print(pad(7) + ":" + pad(30));`,

	`var foo = function(text) {
  return text.replace(/\s+/g, " ").trim();
};
print(foo("  too   many    spaces "));`,

	`var parse = function(text) {
  var m = text.match(/(\d+)-(\d+)/);
  if (m) {
    return Number(m[1]) + Number(m[2]);
  }
  return 0;
};
print(parse("range 10-32 units"));`,

	`var foo = function(s) {
  return s.split("").reverse().join("");
};
print(foo("stressed"));`,

	`var repeatBar = function(n) {
  var bar = "=".repeat(n);
  return "[" + bar.padEnd(10, ".") + "]";
};
print(repeatBar(4));`,

	`var foo = function(str) {
  var lower = str.toLowerCase();
  return lower === lower.split("").reverse().join("");
};
print(foo("Level"));
print(foo("levels"));`,

	// --- arrays ---
	`var test = function(arr) {
  var total = arr.reduce(function(acc, x) { return acc + x; }, 0);
  return total / arr.length;
};
print(test([2, 4, 6, 8]));`,

	`function sumArray(values) {
  var sum = 0;
  for (var v of values) {
    sum += v;
  }
  return sum;
}
print(sumArray([1, 2, 3, 4, 5]));`,

	`var process = function(list) {
  return list.filter(function(x) { return x % 2 === 0; })
             .map(function(x) { return x * x; });
};
print(process([1, 2, 3, 4, 5, 6]));`,

	`var foo = function(size) {
  var array = new Array(size);
  while (size--) {
    array[size] = size * 2;
  }
  return array;
};
print(foo(5));`,

	`var find = function(items, target) {
  var idx = items.indexOf(target);
  if (idx < 0) {
    return "missing";
  }
  return "at " + idx;
};
print(find([5, 10, 15], 10));
print(find([5, 10, 15], 12));`,

	`var foo = function(arr) {
  var copy = arr.slice();
  copy.sort(function(a, b) { return a - b; });
  return copy[0] + "-" + copy[copy.length - 1];
};
print(foo([42, 7, 19]));`,

	`var merge = function(a, b) {
  var out = a.concat(b);
  out.splice(1, 2);
  return out;
};
print(merge([1, 2], [3, 4]));`,

	`var test = function(arr) {
  var flags = arr.map(function(x) { return x > 2; });
  return flags.some(function(f) { return f; }) && !flags.every(function(f) { return f; });
};
print(test([1, 2, 3]));`,

	`var foo = function() {
  var nested = [1, [2, [3, [4]]]];
  return nested.flat(2);
};
print(foo());`,

	`var rotate = function(arr) {
  var first = arr.shift();
  arr.push(first);
  return arr;
};
print(rotate([1, 2, 3]));`,

	`var stack = [];
stack.push(1);
stack.push(2);
stack.push(3);
var top = stack.pop();
print(top, stack.length);`,

	// --- objects ---
	`var helper = function(obj) {
  var keys = Object.keys(obj);
  keys.sort();
  var out = [];
  for (var i = 0; i < keys.length; i++) {
    out.push(keys[i] + "=" + obj[keys[i]]);
  }
  return out.join("&");
};
print(helper({b: 2, a: 1}));`,

	`var foo = function() {
  var config = Object.assign({}, {debug: false}, {debug: true, level: 3});
  return config.debug + ":" + config.level;
};
print(foo());`,

	`function Point(x, y) {
  this.x = x;
  this.y = y;
}
Point.prototype.dist = function() {
  return Math.sqrt(this.x * this.x + this.y * this.y);
};
var p = new Point(3, 4);
print(p.dist());
print(p instanceof Point);`,

	`var counter = {
  n: 0,
  inc: function() { this.n++; return this.n; }
};
counter.inc();
counter.inc();
print(counter.n);`,

	`var foo = function() {
  var frozen = Object.freeze({version: 1});
  frozen.version = 2;
  return frozen.version;
};
print(foo());`,

	`var obj = {};
Object.defineProperty(obj, "answer", {value: 42, enumerable: true});
print(obj.answer, Object.keys(obj).length);`,

	`var proto = {greet: function() { return "hi " + this.name; }};
var child = Object.create(proto);
child.name = "bob";
print(child.greet());`,

	`var foo = function(obj) {
  var total = 0;
  for (var key in obj) {
    if (obj.hasOwnProperty(key)) {
      total += obj[key];
    }
  }
  return total;
};
print(foo({a: 1, b: 2, c: 3}));`,

	// --- numbers and Math ---
	`var convert = function(n) {
  return n.toFixed(2) + " / 0x" + n.toString(16);
};
print(convert(255));`,

	`function compute(a, b) {
  var hyp = Math.sqrt(a * a + b * b);
  return Math.round(hyp * 100) / 100;
}
print(compute(3, 4));`,

	`var check = function(value) {
  if (isNaN(value)) {
    return "not a number";
  }
  if (!isFinite(value)) {
    return "infinite";
  }
  return "finite: " + value;
};
print(check(parseFloat("3.5")));
print(check(parseInt("zzz")));
print(check(1 / 0));`,

	`var clamp = function(x, lo, hi) {
  return Math.min(Math.max(x, lo), hi);
};
print(clamp(15, 0, 10), clamp(-3, 0, 10), clamp(5, 0, 10));`,

	`var foo = function(num) {
  var p = num.toFixed(1);
  return p;
};
var parameter = -634.619;
print(foo(parameter));`,

	`var stats = function(xs) {
  var max = Math.max.apply(null, xs);
  var min = Math.min.apply(null, xs);
  return max - min;
};
print(stats([3, 9, 4, 1]));`,

	`var toBits = function(n) {
  return ((n & 0xff) >>> 0).toString(2);
};
print(toBits(5), toBits(255));`,

	// --- JSON ---
	`var parse = function(text) {
  var data = JSON.parse(text);
  return data.items.length;
};
print(parse('{"items": [1, 2, 3]}'));`,

	`var foo = function(obj) {
  return JSON.stringify(obj);
};
print(foo({name: "x", tags: ["a", "b"], ok: true}));`,

	`var roundTrip = function(v) {
  return JSON.parse(JSON.stringify(v));
};
var out = roundTrip({nested: {deep: [null, false, 1.5]}});
print(out.nested.deep[2]);`,

	// --- closures, control flow, functions ---
	`function makeCounter() {
  var n = 0;
  return function() {
    n += 1;
    return n;
  };
}
var c = makeCounter();
c();
c();
print(c());`,

	`var run = function(input) {
  var result;
  switch (typeof input) {
    case "number":
      result = input * 2;
      break;
    case "string":
      result = input.length;
      break;
    default:
      result = null;
  }
  return result;
};
print(run(21), run("four"), run(true));`,

	`var safeDiv = function(a, b) {
  try {
    if (b === 0) {
      throw new RangeError("division by zero");
    }
    return a / b;
  } catch (e) {
    return e.message;
  } finally {
    // cleanup hook
  }
};
print(safeDiv(10, 2));
print(safeDiv(1, 0));`,

	`var fib = function(n) {
  if (n <= 1) return n;
  return fib(n - 1) + fib(n - 2);
};
print(fib(10));`,

	`var apply = function(f, x) {
  return f(x);
};
print(apply(function(v) { return v + 1; }, 41));`,

	`var foo = function() {
  var fns = [];
  for (var i = 0; i < 3; i++) {
    fns.push((function(j) {
      return function() { return j * 10; };
    })(i));
  }
  return fns[1]();
};
print(foo());`,

	`var compose = function(f, g) {
  return function(x) { return f(g(x)); };
};
var addOne = function(x) { return x + 1; };
var double = function(x) { return x * 2; };
print(compose(addOne, double)(5));`,

	`var memo = {};
var square = function(n) {
  if (memo[n] !== undefined) {
    return memo[n];
  }
  memo[n] = n * n;
  return memo[n];
};
square(9);
print(square(9));`,

	// --- regex ---
	`var foo = function() {
  var a = "anA".split(/n/);
  return a;
};
print(foo());`,

	`var isEmail = function(s) {
  return /^\w+@\w+\.\w+$/.test(s);
};
print(isEmail("bob@example.com"));
print(isEmail("not an email"));`,

	`var extract = function(log) {
  var re = /level=(\w+)/g;
  var m = re.exec(log);
  return m ? m[1] : "none";
};
print(extract("ts=1 level=warn msg=x"));`,

	`var count = function(s) {
  var matches = s.match(/\d+/g);
  return matches ? matches.length : 0;
};
print(count("a1 b22 c333"));`,

	// --- typed arrays and eval ---
	`var foo = function() {
  var e = "123";
  var A = new Uint8Array(5);
  A.set(e);
  return A;
};
print(foo());`,

	`var buf = new ArrayBuffer(8);
var view = new DataView(buf);
view.setUint16(0, 513, true);
print(view.getUint8(0), view.getUint8(1));`,

	`var foo = function(length) {
  var array = new Uint32Array(length);
  return array.length;
};
var parameter = 4;
print(foo(parameter));`,

	`var ints = new Int32Array([1, -2, 3]);
var total = 0;
for (var i = 0; i < ints.length; i++) {
  total += ints[i];
}
print(total);`,

	`var foo = function(cmd) {
  var value = eval(cmd);
  return value;
};
print(foo("6 * 7"));`,

	`var dynamic = function(name) {
  eval("var " + name + " = 5;");
  return eval(name + " + 1");
};
print(dynamic("tempvar"));`,

	// --- dates ---
	`var d = new Date(86400000);
print(d.getUTCFullYear(), d.getUTCMonth(), d.getUTCDate());`,

	`var elapsed = function() {
  var t0 = Date.now();
  var t1 = Date.now();
  return t1 >= t0;
};
print(elapsed());`,

	// --- misc idioms the fuzzer should learn ---
	`var config = {
  retries: 3,
  get limit() { return this.retries * 2; }
};
print(config.limit);`,

	`var tagOf = function(v) {
  return Object.prototype.toString.call(v);
};
print(tagOf([]), tagOf(null), tagOf(7));`,

	`var list = [3, 1, 2];
var labels = list.map(function(n, i) { return i + ":" + n; });
print(labels.join(" "));`,

	`var first = function(arr, pred) {
  var found = arr.find(pred);
  return found === undefined ? -1 : found;
};
print(first([4, 8, 15], function(x) { return x > 5; }));`,

	`var foo = function(str) {
  var padded = str.padStart(8);
  return "[" + padded + "]";
};
print(foo("tail"));`,

	`var swap = function(pair) {
  var tmp = pair[0];
  pair[0] = pair[1];
  pair[1] = tmp;
  return pair;
};
print(swap(["x", "y"]));`,

	`var range = function(n) {
  var out = [];
  var i = 0;
  do {
    out.push(i);
    i++;
  } while (i < n);
  return out;
};
print(range(4));`,

	`var foo = function(n) {
  var label = n > 0 ? "pos" : n < 0 ? "neg" : "zero";
  return label;
};
print(foo(3), foo(-3), foo(0));`,
}

// Fragments splits the corpus into statement-level code bricks for the
// assembly-based baseline fuzzers.
func Fragments() []string {
	var out []string
	for _, p := range programs {
		for _, line := range strings.Split(p, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			out = append(out, line)
		}
	}
	return out
}
