package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeJobRequest decodes body the way the submit handler does:
// unknown fields are an error.
func decodeJobRequest(body []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzJobRequest feeds arbitrary bodies through the submit handler's
// decode and JobRequest.Validate. Neither may panic, and a request that
// validates must survive a JSON round trip: it re-encodes to a body
// that decodes to an equal request, which validates again and names
// the same result. Equal means equal as JSON: an empty list and an
// absent one encode alike (omitempty), and both mean "no levels given".
func FuzzJobRequest(f *testing.F) {
	for _, s := range []string{
		`{"type":"observed","requests":200,"quick":true,"seed":2,"faultRate":2000,"faultLoss":0.001}`,
		`{"type":"observed","faultRate":2000,"faultWindowUs":50,"control":{"autoscale":{"target":"pe","upUtil":0.3,"downUtil":0.05,"sloUs":300,"maxAdd":8},"shed":{"queue":48,"prob":0.02},"retry":{"budget":16}}}`,
		`{"type":"experiment","experiment":"fig11","quick":true,"requests":40,"parallelism":2}`,
		`{"type":"tune","objective":"costperf","generations":3,"patience":2,"sloUs":400,"loadScale":1.5}`,
		`{"type":"tune","space":{"chiplets":[1,2],"pes":[1,4],"peMix":{"TCP":[2,8]},"policies":["accelflow","relief"],"queueDepths":[16],"tcpTimeoutUs":[100]}}`,
		`{"type":"tune","space":{"peMix":{"TCP":[]}}}`,
		`{"type":"observed","control":{}}`,
		`{"type":"observed","requests":-1}`,
		`{"type":"nope","bogus":1}`,
		`{"type":"observed","faultRate":1e308,"faultWindowUs":1e308}`,
		`null`, `[]`, `{}`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(body)
		if err != nil || req.Validate() != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("valid request %+v does not encode: %v", req, err)
		}
		back, err := decodeJobRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", enc, err)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the request: %s became %s (%v)", enc, again, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped request %s no longer validates: %v", enc, err)
		}
		if got, want := back.ResultKey(), req.ResultKey(); got != want {
			t.Fatalf("round trip of %s changed the result key from %q to %q", enc, want, got)
		}
	})
}
