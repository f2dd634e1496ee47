package workload

import (
	"math"
	"sort"
	"strings"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/obs"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// TestObservedMixInvariants runs a loaded SocialNetwork mix with the
// observer attached and checks the structural invariants that must
// hold for every recorded request: child spans nest inside parents,
// segments stay inside their request's window, and the segments of one
// span never overlap on the same resource.
func TestObservedMixInvariants(t *testing.T) {
	sink := obs.New()
	spec := &RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: Mix(services.SocialNetwork(), 1.0, 400),
		Seed:    5,
		Obs:     sink,
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}

	spans := sink.Spans()
	byID := map[int32]obs.SpanData{}
	roots := 0
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Kind == obs.SpanRequest {
			roots++
		}
	}
	if uint64(roots) != res.Completed {
		t.Errorf("request spans %d, completed requests %d", roots, res.Completed)
	}

	rootOf := func(sp obs.SpanData) obs.SpanData {
		for sp.Parent >= 0 {
			sp = byID[sp.Parent]
		}
		return sp
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span %d ends before it starts", sp.ID)
		}
		if sp.Parent >= 0 {
			p := byID[sp.Parent]
			if sp.Start < p.Start || sp.End > p.End {
				t.Errorf("span %d [%v,%v] escapes parent %d [%v,%v]",
					sp.ID, sp.Start, sp.End, p.ID, p.Start, p.End)
			}
		}
		req := rootOf(sp)
		byRes := map[string][]obs.Seg{}
		for _, g := range sp.Segs {
			if g.End <= g.Start {
				t.Errorf("span %d: empty segment %v %s", sp.ID, g.Kind, g.Resource)
			}
			if g.Start < req.Start || g.End > req.End {
				t.Errorf("span %d: segment %v %s [%v,%v] outside request [%v,%v]",
					sp.ID, g.Kind, g.Resource, g.Start, g.End, req.Start, req.End)
			}
			byRes[g.Resource] = append(byRes[g.Resource], g)
		}
		for resName, gs := range byRes {
			sort.Slice(gs, func(i, j int) bool { return gs[i].Start < gs[j].Start })
			for i := 1; i < len(gs); i++ {
				if gs[i].Start < gs[i-1].End {
					t.Errorf("span %d: overlapping %s segments [%v,%v] and [%v,%v]",
						sp.ID, resName, gs[i-1].Start, gs[i-1].End, gs[i].Start, gs[i].End)
				}
			}
		}
	}
}

// TestSamplerRecordsUtilizationSeries checks the periodic sampler: it
// must produce every documented series, with timestamps advancing by
// the sample interval and values in [0,1].
func TestSamplerRecordsUtilizationSeries(t *testing.T) {
	sink := obs.New()
	svc := services.SocialNetwork()[6]
	spec := &RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: SingleService(svc, Poisson{RPS: 4000}, 120),
		Seed:    3,
		Obs:     sink,
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]*obs.Series{}
	for _, sv := range sink.SeriesList() {
		series[sv.Name] = sv
	}
	want := []string{"util/cores", "util/manager", "util/dram", "util/adma"}
	for _, k := range config.AllAccelKinds() {
		want = append(want, "util/pe/"+k.String())
	}
	for _, name := range want {
		sv, ok := series[name]
		if !ok {
			t.Errorf("missing series %q", name)
			continue
		}
		if len(sv.Times) < 2 {
			t.Errorf("%s: only %d samples over %v", name, len(sv.Times), res.Elapsed)
			continue
		}
		for i, ts := range sv.Times {
			if wantTS := sim.Time(i+1) * sink.SampleInterval(); ts != wantTS {
				t.Errorf("%s: sample %d at %v, want %v", name, i, ts, wantTS)
				break
			}
		}
		for i, v := range sv.Values {
			if v < 0 || v > 1 {
				t.Errorf("%s: sample %d = %v outside [0,1]", name, i, v)
				break
			}
		}
	}
	// PEs must have seen real work under this load.
	var peBusy float64
	for _, k := range config.AllAccelKinds() {
		for _, v := range series["util/pe/"+k.String()].Values {
			peBusy += v
		}
	}
	if peBusy == 0 {
		t.Error("all PE utilization samples are zero under load")
	}
}

// TestSampledSeriesAreDriven runs the canonical observed mix and
// checks that every sampled utilization series reads a resource the run
// drives: each has a nonzero sample, except util/manager, which must
// stay zero throughout because the AccelFlow policy never reaches the
// ATM manager. A sampler over a resource no run touches fails here.
func TestSampledSeriesAreDriven(t *testing.T) {
	spec, sink, err := BuildObserved(ObservedParams{Seed: 3, Requests: 600, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	sawManager := false
	for _, sv := range sink.SeriesList() {
		if !strings.HasPrefix(sv.Name, "util/") {
			continue
		}
		peak := 0.0
		for _, v := range sv.Values {
			peak = math.Max(peak, v)
		}
		if sv.Name == "util/manager" {
			sawManager = true
			if peak != 0 {
				t.Errorf("util/manager peaks at %v; AccelFlow never reaches the manager", peak)
			}
			continue
		}
		if peak == 0 {
			t.Errorf("%s is zero in all %d samples: it samples a resource the run never drives", sv.Name, len(sv.Values))
		}
	}
	if !sawManager {
		t.Error("missing series util/manager")
	}
}

// TestReportPercentilesMatchRecorders: the report's per-service P50
// and P99 are the ones the run's recorders report for the same
// requests, so the observed run's artifact and its Values agree on
// every percentile.
func TestReportPercentilesMatchRecorders(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		spec, sink, err := BuildObserved(ObservedParams{Seed: seed, Requests: 600, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep := sink.BuildReport()
		if len(rep.Services) != len(res.PerService) {
			t.Fatalf("seed %d: report has %d services, run %d", seed, len(rep.Services), len(res.PerService))
		}
		for _, sr := range rep.Services {
			rec := res.PerService[sr.Service]
			if rec == nil || rec.Count() != sr.Count {
				t.Fatalf("seed %d: %s has %d report requests, recorder %v", seed, sr.Service, sr.Count, rec)
			}
			if want := rec.P50().Micros(); sr.P50Us != want {
				t.Errorf("seed %d: %s report P50 %v us, recorder %v us", seed, sr.Service, sr.P50Us, want)
			}
			if want := rec.P99().Micros(); sr.P99Us != want {
				t.Errorf("seed %d: %s report P99 %v us, recorder %v us", seed, sr.Service, sr.P99Us, want)
			}
		}
	}
}
