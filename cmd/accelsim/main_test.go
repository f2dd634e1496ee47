package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"accelflow/internal/serve"
)

// goodArgs is the flag defaults, so each row mutates exactly one thing.
func goodArgs() cliArgs { return parseArgs(nil) }

// TestValidateFlags pins the upfront-validation contract: every bad
// flag value is rejected before any simulation work starts (main turns
// the error into an exit-2 fatalf), and each message names the flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string // error substring; "" = valid
	}{
		{"defaults", func(a *cliArgs) {}, ""},
		{"known experiment", func(a *cliArgs) { a.exp = "area" }, ""},
		{"all experiments", func(a *cliArgs) { a.exp = "all" }, ""},
		{"negative faults", func(a *cliArgs) { a.faultRate = -1 }, "-faults"},
		{"faultloss above one", func(a *cliArgs) { a.faultLoss = 1.5 }, "-faultloss"},
		{"negative faultloss", func(a *cliArgs) { a.faultLoss = -0.1 }, "-faultloss"},
		{"NaN faults", func(a *cliArgs) { a.faultRate = math.NaN() }, "-faults"},
		{"NaN faultloss", func(a *cliArgs) { a.faultLoss = math.NaN() }, "-faultloss"},
		{"faults beyond the window cap", func(a *cliArgs) { a.faultRate = 1e8 }, "windows"},
		{"negative faultwindow", func(a *cliArgs) { a.faultRate = 2000; a.faultWindow = -5 * time.Microsecond }, "-faultwindow"},
		{"requests over the daemon cap", func(a *cliArgs) { a.n = 200_000 }, ""},
		{"zero requests", func(a *cliArgs) { a.n = 0 }, "-n"},
		{"negative requests", func(a *cliArgs) { a.n = -5 }, "-n"},
		{"negative parallel", func(a *cliArgs) { a.parallel = -1 }, "-parallel"},
		{"unknown experiment", func(a *cliArgs) { a.exp = "fig99" }, "unknown experiment"},

		{"ctl pe", func(a *cliArgs) { a.ctlTarget = "pe" }, ""},
		{"ctl cores with slo", func(a *cliArgs) { a.ctlTarget = "cores"; a.ctlSLO = 300 }, ""},
		{"ctl shed without autoscaler", func(a *cliArgs) { a.ctlShedQ = 64 }, ""},
		{"ctl retry without autoscaler", func(a *cliArgs) { a.ctlRetry = 4 }, ""},
		{"ctl unknown target", func(a *cliArgs) { a.ctlTarget = "gpus" }, "autoscale target"},
		{"ctl replicas needs fleet", func(a *cliArgs) { a.ctlTarget = "replicas" }, "autoscale target"},
		{"ctl down above up", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlDown = 0.9 }, "DownUtil"},
		{"ctl nonpositive up", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlUp = 0 }, "UpUtil"},
		{"ctl negative slo", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlSLO = -1 }, "SLOUs"},
		{"ctl NaN up", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlUp = math.NaN() }, "UpUtil"},
		{"ctl NaN slo", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlSLO = math.NaN() }, "SLOUs"},
		{"ctl NaN shed prob", func(a *cliArgs) { a.ctlShedP = math.NaN() }, "shed probability"},
		{"ctl negative ceiling", func(a *cliArgs) { a.ctlTarget = "pe"; a.ctlMax = -1 }, "-ctl"},
		{"ctl shed prob above one", func(a *cliArgs) { a.ctlShedP = 1.5 }, "shed probability"},
		{"ctl negative shed queue", func(a *cliArgs) { a.ctlShedQ = -2 }, "shed queue"},
		{"ctl negative retry budget", func(a *cliArgs) { a.ctlRetry = -3 }, "retry budget"},
		{"ctl with tune", func(a *cliArgs) { a.tune = "p99"; a.ctlTarget = "pe" }, "-ctl"},

		{"tune defaults", func(a *cliArgs) { a.tune = "p99" }, ""},
		{"tune energy", func(a *cliArgs) { a.tune = "energy" }, ""},
		{"tune costperf", func(a *cliArgs) { a.tune = "costperf" }, ""},
		{"tune custom space", func(a *cliArgs) {
			a.tune = "p99"
			a.tuneChiplets = "2,4"
			a.tunePEs = "8, 12"
			a.tunePolicies = "accelflow,relief"
		}, ""},
		{"tune state without resume", func(a *cliArgs) { a.tune = "p99"; a.tuneState = "s.json" }, ""},
		{"tune resume with state", func(a *cliArgs) {
			a.tune = "p99"
			a.tuneState = "s.json"
			a.tuneResume = true
		}, ""},
		{"unknown objective", func(a *cliArgs) { a.tune = "latency" }, "objective"},
		{"tune with exp", func(a *cliArgs) { a.tune = "p99"; a.exp = "area" }, "separate modes"},
		{"resume without state", func(a *cliArgs) { a.tune = "p99"; a.tuneResume = true }, "-tunestate"},
		{"resume without tune", func(a *cliArgs) { a.tuneResume = true }, "-tune"},
		{"state without tune", func(a *cliArgs) { a.tuneState = "s.json" }, "-tune"},
		{"out without tune", func(a *cliArgs) { a.tuneOut = "r.json" }, "-tune"},
		{"negative generations", func(a *cliArgs) { a.tune = "p99"; a.tuneGens = -1 }, "-tunegens"},
		{"negative patience", func(a *cliArgs) { a.tune = "p99"; a.tunePatience = -1 }, "-tunegens and -tunepatience"},
		{"negative slo", func(a *cliArgs) { a.tune = "p99"; a.tuneSLO = -100 }, "-tuneslo"},
		{"negative load", func(a *cliArgs) { a.tune = "p99"; a.tuneLoad = -0.5 }, "-tuneload"},
		{"NaN slo", func(a *cliArgs) { a.tune = "p99"; a.tuneSLO = math.NaN() }, "-tuneslo"},
		{"NaN load", func(a *cliArgs) { a.tune = "p99"; a.tuneLoad = math.NaN() }, "-tuneload"},
		{"bad chiplet list", func(a *cliArgs) { a.tune = "p99"; a.tuneChiplets = "2,x" }, "-tunechiplets"},
		{"bad pes list", func(a *cliArgs) { a.tune = "p99"; a.tunePEs = "8,," }, "-tunepes"},
		{"bad queue list", func(a *cliArgs) { a.tune = "p99"; a.tuneQueues = "64,big" }, "-tunequeues"},
		{"bad timeout list", func(a *cliArgs) { a.tune = "p99"; a.tuneTimeouts = "1e4,soon" }, "-tunetimeouts"},
		{"invalid chiplet plan", func(a *cliArgs) { a.tune = "p99"; a.tuneChiplets = "5" }, "chiplet plan"},
		{"unknown policy", func(a *cliArgs) { a.tune = "p99"; a.tunePolicies = "fifo" }, "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := goodArgs()
			tc.mut(&a)
			_, err := a.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate() = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestControlSpecSelection pins the nil-at-defaults contract: with
// every control knob neutral the observed run must get a nil spec
// (the exact pre-control code path), and each knob group enables
// independently.
func TestControlSpecSelection(t *testing.T) {
	a := goodArgs()
	if spec := a.controlSpec(); spec != nil {
		t.Fatalf("default flags built a control spec: %+v", spec)
	}

	a.ctlTarget = "cores"
	a.ctlSLO = 300
	spec := a.controlSpec()
	if spec == nil || spec.Autoscale == nil {
		t.Fatal("-ctl cores did not build an autoscale spec")
	}
	if spec.Autoscale.Target != "cores" || spec.Autoscale.UpUtil != 0.75 || spec.Autoscale.SLOUs != 300 {
		t.Fatalf("autoscale spec does not mirror the flags: %+v", spec.Autoscale)
	}
	if spec.Shed != nil || spec.Retry != nil {
		t.Fatalf("-ctl alone must not enable shedding or retries: %+v", spec)
	}

	a = goodArgs()
	a.ctlShedQ = 64
	a.ctlRetry = 4
	spec = a.controlSpec()
	if spec == nil || spec.Autoscale != nil {
		t.Fatalf("shed/retry knobs must work without an autoscaler: %+v", spec)
	}
	if spec.Shed == nil || spec.Shed.Queue != 64 || spec.Retry == nil || spec.Retry.Budget != 4 {
		t.Fatalf("shed/retry spec does not mirror the flags: %+v", spec)
	}
}

// TestTuneParamsSpaceSelection: all space flags empty leave the
// request's space nil, which selects the default space; any set flag
// switches to an explicit space built from the set flags alone.
func TestTuneParamsSpaceSelection(t *testing.T) {
	a := goodArgs()
	a.tune = "p99"
	req, err := a.request(serve.JobTune)
	if err != nil {
		t.Fatal(err)
	}
	if req.Space != nil {
		t.Fatalf("empty space flags should select the default space, got %+v", req.Space)
	}

	a.tuneChiplets = "1,2"
	if req, err = a.request(serve.JobTune); err != nil {
		t.Fatal(err)
	}
	if req.Space == nil || len(req.Space.Chiplets) != 2 || req.Space.Chiplets[0] != 1 {
		t.Fatalf("explicit -tunechiplets ignored: %+v", req.Space)
	}
	if len(req.Space.PEs) != 0 || len(req.Space.Policies) != 0 {
		t.Fatalf("explicit space must not inherit default dims: %+v", req.Space)
	}
}

// TestRequestMatchesDaemon pins the flag→request mapping: for each
// mode, the request accelsim builds from its flags equals the daemon's
// strict decode of the equivalent POST /v1/jobs body, so both run the
// same job and share its result key.
func TestRequestMatchesDaemon(t *testing.T) {
	cases := []struct {
		name string
		args []string
		body string
	}{
		{"experiment",
			[]string{"-exp", "fig11", "-quick", "-n", "300", "-seed", "3", "-parallel", "2"},
			`{"type":"experiment","experiment":"fig11","requests":300,"seed":3,"quick":true,"parallelism":2}`},
		{"observed with faults and control",
			[]string{"-report", "r.json", "-quick", "-n", "200", "-seed", "2", "-faults", "2000", "-faultwindow", "50us",
				"-faultloss", "0.001", "-ctl", "pe", "-ctlslo", "300", "-ctlshedq", "64", "-ctlretry", "4"},
			`{"type":"observed","requests":200,"seed":2,"quick":true,"faultRate":2000,"faultWindowUs":50,"faultLoss":0.001,
			  "control":{"autoscale":{"target":"pe","upUtil":0.75,"downUtil":0.25,"sloUs":300,"maxAdd":8},
			             "shed":{"queue":64},"retry":{"budget":4}}}`},
		{"tune with a custom space",
			[]string{"-tune", "costperf", "-quick", "-n", "40", "-seed", "7", "-tunegens", "4",
				"-tunepatience", "2", "-tuneslo", "900", "-tuneload", "1.5", "-tunechiplets", "2,1", "-tunepes", "8, 4",
				"-tunepolicies", "accelflow,relief", "-tunequeues", "32,64", "-tunetimeouts", "1e4,2e4"},
			`{"type":"tune","objective":"costperf","requests":40,"seed":7,"quick":true,
			  "generations":4,"patience":2,"sloUs":900,"loadScale":1.5,
			  "space":{"chiplets":[2,1],"pes":[8,4],"policies":["accelflow","relief"],"queueDepths":[32,64],"tcpTimeoutUs":[1e4,2e4]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := parseArgs(tc.args)
			got, err := a.validate()
			if err != nil {
				t.Fatalf("validate() = %v", err)
			}
			if a.exp != "" {
				got = a.experimentRequest()
			}
			var want serve.JobRequest
			dec := json.NewDecoder(strings.NewReader(tc.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("daemon decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CLI request differs from the daemon's:\n cli    %+v\n daemon %+v", got, want)
			}
			if k := got.ResultKey(); k == "" || k != want.ResultKey() {
				t.Fatalf("result keys differ: cli %q, daemon %q", k, want.ResultKey())
			}
		})
	}
}

func TestParseLists(t *testing.T) {
	if got, err := parseList("-x", "1, 2,3", strconv.Atoi); err != nil || len(got) != 3 || got[2] != 3 {
		t.Errorf("parseList(ints) = %v, %v", got, err)
	}
	if got, err := parseList("-x", "1e4,5.5", parseFloat); err != nil || len(got) != 2 || got[1] != 5.5 {
		t.Errorf("parseList(floats) = %v, %v", got, err)
	}
	if got, err := parseList("-x", "", strconv.Atoi); err != nil || got != nil {
		t.Errorf("parseList(empty) = %v, %v, want nil, nil", got, err)
	}
	if _, err := parseList("-tunequeues", "64,deep", strconv.Atoi); err == nil || !strings.Contains(err.Error(), "-tunequeues") {
		t.Errorf("parseList error should name the flag: %v", err)
	}
}
