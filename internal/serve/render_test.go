package serve

import (
	"context"
	"testing"

	"accelflow/internal/obs"
)

var observedJobArtifacts map[obs.Artifact][]byte

// BenchmarkObservedJob times the daemon's most common job as a worker
// runs it on a cold cache: the 150-request quick observed run, then
// the rendering of its trace and report into the bytes the job keeps.
func BenchmarkObservedJob(b *testing.B) {
	req := JobRequest{Type: JobObserved, Requests: 150, Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), req, Env{})
		if err != nil {
			b.Fatal(err)
		}
		if observedJobArtifacts, err = renderArtifacts(res.Sink); err != nil {
			b.Fatal(err)
		}
	}
}
