// Tests for the artifact byte budget (cache.go): the bytes held stay
// within it whether or not results are cached, an evicted job's
// artifacts answer 410 while its values still answer, its resubmission
// renders the same bytes again, and hits keep a hot set held.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"accelflow/internal/obs"
)

// filler backs the stub entries' traces: entries share it read-only,
// so a test can hold budgets' worth of artifact bytes without the
// memory. Pages never written stay untouched.
var filler = make([]byte, 2*artifactBudget)

// sizedReq is a stub experiment request whose job finishes with a
// trace of size bytes, a whole number of KiB within the request cap;
// seed makes it a distinct result.
func sizedReq(size int, seed int64) JobRequest {
	r := stubReq()
	r.Requests, r.Seed = size>>10, seed
	return r
}

// budgetServer boots a scheduler whose stub experiment jobs publish a
// trace of Requests KiB through the same path a real run takes
// (Scheduler.succeed), while observed jobs run for real.
func budgetServer(t *testing.T, cacheEntries int) (*Scheduler, *httptest.Server) {
	t.Helper()
	var sched *Scheduler
	var ts *httptest.Server
	sched, ts = testServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: cacheEntries}, func(ctx context.Context, j *Job) {
		if j.Req.Type == JobObserved {
			sched.execute(ctx, j)
			return
		}
		sched.succeed(j, newResultEntry(retainedEntry().values,
			map[obs.Artifact][]byte{obs.ArtifactTrace: filler[:j.Req.Requests<<10]}))
	})
	return sched, ts
}

// heldBytes sums the artifact bytes the retained jobs can still serve,
// counting an entry shared by several jobs once.
func heldBytes(s *Scheduler) int64 {
	seen := map[*jobResultEntry]bool{}
	var n int64
	for _, j := range s.Jobs() {
		e := j.cacheEntry()
		if e == nil || seen[e] || !e.hasArtifacts() {
			continue
		}
		seen[e] = true
		n += e.size
	}
	return n
}

// TestArtifactBudgetBound: after every finished job, the artifact bytes
// held are within the budget, or are the newest job's alone, with the
// result cache on and off; the newest job always keeps its artifacts.
func TestArtifactBudgetBound(t *testing.T) {
	for _, entries := range []int{64, 0} {
		t.Run(fmt.Sprintf("cache=%d", entries), func(t *testing.T) {
			sched, _ := budgetServer(t, entries)
			// Sizes from a small LCG, up to 1.5 budgets: most jobs fit
			// several to the budget, some exceed it alone.
			x := uint64(entries) + 1
			for i := int64(1); i <= 40; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				size := (int(x>>33)%(3*artifactBudget/2>>10) + 1) << 10
				j := submitDone(t, sched, sizedReq(size, i))
				held := heldBytes(sched)
				if limit := max(int64(artifactBudget), int64(size)); held > limit {
					t.Fatalf("job %d (%d B): retained jobs hold %d B of artifacts, over %d", i, size, held, limit)
				}
				if st, _ := sched.CacheStats(); st.ArtifactBytes != held || st.ArtifactBudget != artifactBudget {
					t.Fatalf("job %d: stats hold %d B of a %d B budget, retained jobs %d B", i, st.ArtifactBytes, st.ArtifactBudget, held)
				}
				if b, _, _ := j.artifact(obs.ArtifactTrace); len(b) != size {
					t.Fatalf("newest job %d serves a %d B trace, want its %d B", i, len(b), size)
				}
			}
			if st, _ := sched.CacheStats(); st.ArtifactEvictions == 0 {
				t.Fatal("no artifacts were evicted; the sizes never reached the budget")
			}
		})
	}
}

// TestArtifactBudgetResubmitEvicted: an observed job whose artifacts the
// budget evicted answers 410 on both, with an error that says to
// resubmit, still answers 200 on its values and lists no artifacts; its
// resubmission runs again rather than hitting a result without
// artifacts, and renders byte-identical ones.
func TestArtifactBudgetResubmitEvicted(t *testing.T) {
	_, ts := budgetServer(t, 8)
	body := `{"type":"observed","requests":60,"quick":true,"seed":5}`
	first := submitAndWait(t, ts.URL, body)
	jobURL := ts.URL + "/v1/jobs/" + first
	want := map[string][]byte{}
	for _, a := range obs.Artifacts() {
		want[string(a)] = fetchBytes(t, jobURL+"/artifacts/"+string(a))
	}
	values := fetchBytes(t, jobURL+"/values")

	// One job the size of the budget evicts every older entry.
	submitAndWait(t, ts.URL, fmt.Sprintf(`{"type":"experiment","experiment":"area","quick":true,"requests":%d,"seed":1}`, artifactBudget>>10))

	for kind := range want {
		resp, err := http.Get(jobURL + "/artifacts/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone || !strings.Contains(string(msg), "resubmit") {
			t.Fatalf("evicted %s: status %d body %s, want 410 saying to resubmit", kind, resp.StatusCode, msg)
		}
	}
	if got := fetchBytes(t, jobURL+"/values"); !bytes.Equal(got, values) {
		t.Fatal("values changed when the artifacts were evicted")
	}
	if v := jobView(t, ts.URL, first); len(v.Artifacts) != 0 || v.State != StateDone {
		t.Fatalf("evicted job view %+v, want done with no artifacts", v)
	}
	if _, st := cacheStatsHTTP(t, ts.URL); st.ArtifactEvictions == 0 || st.ArtifactBytes > artifactBudget {
		t.Fatalf("cache stats %+v, want an artifact eviction and bytes within the budget", st)
	}

	again := submitAndWait(t, ts.URL, body)
	if jobView(t, ts.URL, again).Cached {
		t.Fatal("resubmission of an evicted result was served from the cache")
	}
	for kind, b := range want {
		if got := fetchBytes(t, ts.URL+"/v1/jobs/"+again+"/artifacts/"+kind); !bytes.Equal(got, b) {
			t.Fatalf("re-rendered %s differs from the first rendering", kind)
		}
	}
}

// TestArtifactBudgetLRU: a hot set hit between distinct cold jobs keeps
// hitting, with its artifacts, although the cold jobs' bytes pass the
// budget several times over: a hit makes an entry most recently used,
// so eviction takes the cold ones. Evicting in publish order would
// take the hot set at the first overflow.
func TestArtifactBudgetLRU(t *testing.T) {
	sched, _ := budgetServer(t, 64)
	var hot []JobRequest
	for i := int64(1); i <= 3; i++ {
		hot = append(hot, sizedReq(artifactBudget/8, i))
		submitDone(t, sched, hot[len(hot)-1])
	}
	for i := int64(0); i < 12; i++ {
		if j := submitDone(t, sched, sizedReq(artifactBudget/4, 100+i)); j.snapshot().Cached {
			t.Fatalf("cold job %d hit the cache", i)
		}
		for k, req := range hot {
			j := submitDone(t, sched, req)
			if !j.snapshot().Cached {
				t.Fatalf("after cold job %d, hot job %d missed the cache", i, k)
			}
			if b, _, evicted := j.artifact(obs.ArtifactTrace); evicted || len(b) != artifactBudget/8 {
				t.Fatalf("after cold job %d, hot job %d has no trace (evicted %t)", i, k, evicted)
			}
		}
	}
	if st, _ := sched.CacheStats(); st.ArtifactEvictions < 10 {
		t.Fatalf("%d artifact evictions, want the cold jobs evicted", st.ArtifactEvictions)
	}
}

// TestArtifactBudgetRevokeRace: downloads racing the revocation of the
// artifacts they fetch each get the whole trace or 410, never part of
// it or an error.
func TestArtifactBudgetRevokeRace(t *testing.T) {
	sched, ts := budgetServer(t, 8)
	const size = 64 << 10
	victim := submitDone(t, sched, sizedReq(size, 1))
	url := ts.URL + "/v1/jobs/" + victim.ID + "/artifacts/trace"
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusGone:
					return
				case err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(b, filler[:size]):
					errs <- fmt.Errorf("status %d, %d B, err %v", resp.StatusCode, len(b), err)
					return
				}
			}
		}()
	}
	submitDone(t, sched, sizedReq(artifactBudget, 2))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
