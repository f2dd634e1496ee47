package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// cancelledSweeps is how many cancelled sweeps each throughput
// experiment runs. Whether the cancellation lands inside a search
// depends on timing, so one sweep proves little.
const cancelledSweeps = 8

// TestThroughputSearchCancelIsAnError: a throughput cell whose probes
// fail does not report the throughput it had found so far. Each sweep
// runs every cell at once and cancels when the first cell finishes, so
// the other cells' searches lose their probes mid-run. The sweep must
// then fail with the cancellation, or, when every cell had finished
// first, return exactly the uncancelled sweep's Values.
func TestThroughputSearchCancelIsAnError(t *testing.T) {
	for _, tc := range []struct {
		id    string
		cells int
	}{{"fig14", 14}, {"fig15", 4}} {
		t.Run(tc.id, func(t *testing.T) {
			var want map[string]float64
			for i := 0; i < cancelledSweeps; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				o := quickOpts()
				o.Parallelism, o.Ctx = tc.cells, ctx
				o.OnCell = func(CellEvent) { cancel() }
				res, err := Registry[tc.id](o)
				cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("sweep %d: err = %v, want context.Canceled", i, err)
					}
					continue
				}
				if want == nil {
					ref, err := Registry[tc.id](quickOpts())
					if err != nil {
						t.Fatal(err)
					}
					want = ref.Values
				}
				if !reflect.DeepEqual(res.Values, want) {
					t.Fatalf("sweep %d: cancelled sweep returned Values with no error, and they differ from the uncancelled sweep's (%s)",
						i, firstDiff(res.Values, want))
				}
			}
		})
	}
}

// firstDiff names the first key, in sorted order, on which got and
// want differ.
func firstDiff(got, want map[string]float64) string {
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if gok != wok || g != w {
			return fmt.Sprintf("%s: got %v (present %t), want %v (present %t)", k, g, gok, w, wok)
		}
	}
	return "no key differs"
}
