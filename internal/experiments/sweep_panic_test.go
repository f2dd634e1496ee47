package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCellsPanicFailsOnlyThatCell: a cell whose Run panics fails the
// sweep with an error naming the cell's key, at any parallelism. Every
// other cell still runs, and OnCell reports the error against the
// panicking cell alone.
func TestRunCellsPanicFailsOnlyThatCell(t *testing.T) {
	for _, par := range []int{1, 4} {
		var ran atomic.Int64
		var cells []Cell[int]
		for _, key := range []string{"a", "b", "boom", "c", "d", "e"} {
			cells = append(cells, Cell[int]{Key: key, Run: func(int64) (int, error) {
				if key == "boom" {
					var m map[string]int
					m["x"]++ // a nil-map write, as a modeling bug would
				}
				ran.Add(1)
				return 1, nil
			}})
		}
		var mu sync.Mutex
		reported := map[string]error{}
		o := Options{Parallelism: par, OnCell: func(ev CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			reported[ev.Key] = ev.Err
		}}
		_, err := RunCells(o, cells)
		if err == nil || !strings.Contains(err.Error(), `cell "boom" panicked`) {
			t.Fatalf("parallelism %d: err = %v, want the boom cell's panic", par, err)
		}
		if n := ran.Load(); n != 5 {
			t.Errorf("parallelism %d: %d cells finished, want the other 5", par, n)
		}
		if len(reported) != len(cells) {
			t.Errorf("parallelism %d: OnCell saw %d cells, want %d", par, len(reported), len(cells))
		}
		for key, cellErr := range reported {
			if (key == "boom") != (cellErr != nil) {
				t.Errorf("parallelism %d: OnCell reported %q with error %v", par, key, cellErr)
			}
		}
	}
}
