package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
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

// encoderValuesBody is the GET /values body as json.Encoder writes it
// for the job's id, a copy of its values map and a copy of its lines,
// with HTML escaping off: the body each request used to encode anew.
func encoderValuesBody(t *testing.T, id string, values map[string]float64, lines []string) []byte {
	t.Helper()
	vals := make(map[string]float64, len(values))
	for k, v := range values {
		vals[k] = v
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(map[string]any{"id": id, "values": vals, "lines": append([]string(nil), lines...)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValuesBodyMatchesEncoder: the values body rendered once at
// completion is byte-identical to the encoder's output, for an
// experiment job (whose lines hold quotes and "->"), an observed job
// (no lines: "lines":null) and a tune job, and for edge cases rendered
// directly.
func TestValuesBodyMatchesEncoder(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	for _, body := range []string{
		`{"type":"experiment","experiment":"tab2","quick":true,"requests":40}`,
		`{"type":"observed","requests":120,"quick":true,"seed":4}`,
		tuneBody,
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), req, Env{})
		if err != nil {
			t.Fatal(err)
		}
		id := submitAndWait(t, ts.URL, body)
		got := fetchBytes(t, ts.URL+"/v1/jobs/"+id+"/values")
		if want := encoderValuesBody(t, id, res.Values, res.Lines); !bytes.Equal(got, want) {
			t.Errorf("%s job: served values body\n%s\nwant\n%s", req.Type, got, want)
		}
		if req.Type == JobObserved && !bytes.Contains(got, []byte(`"lines":null`)) {
			t.Errorf("observed job's values body has lines: %s", got)
		}
	}

	for _, c := range []struct {
		name   string
		values map[string]float64
		lines  []string
	}{
		{"no lines", map[string]float64{}, nil},
		{"markup and unicode", map[string]float64{"a<b": 1, "z&y": -0.5, "µs": 1e-9},
			[]string{"p99 <= 2.9% & rising > 1", "tab\tquote\""}},
		{"float forms", map[string]float64{"big": 1e21, "small": 1e-7, "neg": -0, "int": 42, "frac": 0.1 + 0.2}, []string{"x"}},
	} {
		rest, err := renderValues(c.values, c.lines)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := append([]byte(`{"id":"job-7",`), rest...)
		if want := encoderValuesBody(t, "job-7", c.values, c.lines); !bytes.Equal(got, want) {
			t.Errorf("%s: rendered\n%s\nwant\n%s", c.name, got, want)
		}
	}
}

// TestRenderValuesNamesNonFiniteKeys: a value JSON cannot encode fails
// the render with an error naming each key that holds one.
func TestRenderValuesNamesNonFiniteKeys(t *testing.T) {
	_, err := renderValues(map[string]float64{"ok": 1, "b": math.NaN(), "a": math.Inf(-1)}, nil)
	if err == nil {
		t.Fatal("non-finite values rendered")
	}
	for _, want := range []string{`"a" is -Inf`, `"b" is NaN`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), `"ok"`) {
		t.Errorf("error %q names a finite value", err)
	}
}
