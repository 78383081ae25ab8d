package engines

import (
	"sync"
	"testing"
)

// TestPrepareConcurrent: concurrent Testbed.Prepare and NewDefectRunner
// calls — attribution and reducers of concurrent campaigns share the memo
// — yield exactly one prepared executor per key. Synthetic defects start
// cold, so their first calls race to populate the memo.
func TestPrepareConcurrent(t *testing.T) {
	tbs := Testbeds()[:8]
	defects := append([]*Defect{nil}, Catalog()[:8]...)
	for i := 0; i < 4; i++ {
		defects = append(defects, &Defect{ID: "TEST-CONCURRENT", Engine: "Test"})
	}
	type key struct {
		tb     int // index into tbs, or -1 for a defect runner
		d      *Defect
		strict bool
	}
	const goroutines = 8
	var mu sync.Mutex
	seen := map[key]map[*PreparedTestbed]bool{}
	record := func(k key, p *PreparedTestbed) {
		mu.Lock()
		defer mu.Unlock()
		if seen[k] == nil {
			seen[k] = map[*PreparedTestbed]bool{}
		}
		seen[k][p] = true
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range tbs {
				j := (i + g) % len(tbs)
				record(key{tb: j}, tbs[j].Prepare())
			}
			for i := range defects {
				d := defects[(i+g)%len(defects)]
				for _, strict := range []bool{g%2 == 0, g%2 != 0} {
					record(key{tb: -1, d: d, strict: strict}, NewDefectRunner(d, strict))
				}
			}
		}(g)
	}
	wg.Wait()
	for k, ps := range seen {
		if len(ps) != 1 {
			t.Errorf("key %+v: %d distinct prepared executors, want 1", k, len(ps))
		}
	}
	for _, strict := range []bool{false, true} {
		if NewDefectRunner(nil, strict) != ReferenceTestbed(strict).Prepare() {
			t.Errorf("strict=%v: the nil-defect runner is not the prepared reference", strict)
		}
	}
	a, b := defects[len(defects)-1], defects[len(defects)-2]
	if NewDefectRunner(a, false) == NewDefectRunner(b, false) {
		t.Error("two synthetic defects with one ID share a runner; the memo must key by pointer")
	}
}
