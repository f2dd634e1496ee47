package services

import (
	"accelflow/internal/engine"
	"accelflow/internal/sim"
)

// Service describes one microservice: its Table IV execution path, its
// branch-probability profile, payload-size distribution, and nominal
// app-logic segments.
type Service struct {
	Name  string
	Steps []engine.Step
	Probs engine.FlagProbs

	PayloadMedian float64 // bytes (Fig. 5: few-KB medians)
	PayloadSigma  float64 // lognormal sigma (long tail)

	// WantAccels is Table IV's accelerator count on the most common
	// execution path, validated by tests.
	WantAccels int

	// RatekRPS is the Alibaba-like average invocation rate used for
	// the Fig. 11 experiments (the per-service rates average 13.4K).
	RatekRPS float64

	// SLOus, when nonzero, attaches a soft SLO (in microseconds) to
	// every request, used by the EDF scheduling policy (§IV-C).
	SLOus float64
}

// Job materializes one request of the service.
func (s *Service) Job() *engine.Job {
	return &engine.Job{
		Service:       s.Name,
		Steps:         s.Steps,
		Probs:         s.Probs,
		PayloadMedian: s.PayloadMedian,
		PayloadSigma:  s.PayloadSigma,
		SLO:           sim.FromMicros(s.SLOus),
	}
}

func app(us float64) engine.Step {
	return engine.Step{Kind: engine.StepApp, App: sim.FromMicros(us)}
}

func chain(name string) engine.Step {
	return engine.Step{Kind: engine.StepChain, Trace: name}
}

func rep(name string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = name
	}
	return out
}

// SocialNetwork returns the eight DeathStarBench SocialNetwork services
// with the execution paths of Table IV. The flag probabilities are
// chosen so the most common path reproduces Table IV's accelerator
// counts exactly (validated in tests), and the Alibaba-like rates
// average 13.4K RPS (§VI).
func SocialNetwork() []*Service {
	return []*Service{
		{
			// CPost: T1-CPU-4x(T9-T10)-CPU-3x(T9-T10)-CPU-T2, 87 accels.
			// Compressed payloads throughout (T1 Dcmp, T9c, T10 Dcmp).
			Name: "CPost",
			Steps: []engine.Step{
				chain(T1), app(25),
				{Kind: engine.StepParallel, Par: rep(T9C, 4)}, app(25),
				{Kind: engine.StepParallel, Par: rep(T9C, 3)}, app(25),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.9, PHit: 0.5, PFound: 0.97, PException: 0.01},
			PayloadMedian: 1600, PayloadSigma: 0.75,
			WantAccels: 87,
			RatekRPS:   4.0,
		},
		{
			// ReadH: T1-CPU-T4-T5-CPU-T9-T10-CPU-T3, 28 accels.
			// Compressed home-timeline payloads; cache mostly hits.
			Name: "ReadH",
			Steps: []engine.Step{
				chain(T1), app(14),
				chain(T4), app(11),
				// The nested RPC leg carries an uncompressed response,
				// unlike the compressed timeline payloads.
				{Kind: engine.StepChain, Trace: T9,
					Probs: &engine.FlagProbs{PCompressed: 0.1, PHit: 0.85, PFound: 0.98, PException: 0.01}},
				app(9),
				chain(T3),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.85, PHit: 0.85, PFound: 0.98, PException: 0.01},
			PayloadMedian: 2100, PayloadSigma: 0.8,
			WantAccels: 28,
			RatekRPS:   9.0,
		},
		{
			// StoreP: T1-CPU-T8-T7-CPU-T2, 18 accels (compressed store).
			Name: "StoreP",
			Steps: []engine.Step{
				chain(T1), app(12),
				chain(T8C), app(8),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.8, PHit: 0.5, PFound: 0.98, PException: 0.01},
			PayloadMedian: 1800, PayloadSigma: 0.8,
			WantAccels: 18,
			RatekRPS:   14.0,
		},
		{
			// Follow: T1-CPU-3x(T8-T7)-CPU-T2, 30 accels (plain writes).
			Name: "Follow",
			Steps: []engine.Step{
				chain(T1), app(16),
				{Kind: engine.StepParallel, Par: rep(T8, 3)}, app(9),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.1, PHit: 0.5, PFound: 0.98, PException: 0.01},
			PayloadMedian: 900, PayloadSigma: 0.7,
			WantAccels: 30,
			RatekRPS:   11.0,
		},
		{
			// Login: T1-CPU-T4-T5-T6-T7-CPU-T2, 29 accels. The common
			// path misses in the cache (T5.miss -> T6 -> write-back ->
			// T7); credentials are not compressed.
			Name: "Login",
			Steps: []engine.Step{
				chain(T1), app(17),
				chain(T4), app(11),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.05, PHit: 0.15, PFound: 0.97, PException: 0.01},
			PayloadMedian: 700, PayloadSigma: 0.6,
			WantAccels: 29,
			RatekRPS:   9.0,
		},
		{
			// CUrls: T1-CPU-T8-T7-CPU-T3, 19 accels (compressed both ways).
			Name: "CUrls",
			Steps: []engine.Step{
				chain(T1), app(11),
				chain(T8C), app(8),
				chain(T3),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.85, PHit: 0.5, PFound: 0.98, PException: 0.01},
			PayloadMedian: 1200, PayloadSigma: 0.7,
			WantAccels: 19,
			RatekRPS:   15.0,
		},
		{
			// UniqId: T1-CPU-T2, 9 accels. The shortest service, with
			// the highest tax share (§III-Q1).
			Name: "UniqId",
			Steps: []engine.Step{
				chain(T1), app(5),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.02, PHit: 0.5, PFound: 0.99, PException: 0.005},
			PayloadMedian: 400, PayloadSigma: 0.5,
			WantAccels: 9,
			RatekRPS:   31.0,
		},
		{
			// RegUsr: T1-CPU-T8-T7-CPU-T9-T10-CPU-T2, 25 accels.
			Name: "RegUsr",
			Steps: []engine.Step{
				chain(T1), app(14),
				chain(T8), app(9),
				chain(T9), app(8),
				chain(T2),
			},
			Probs:         engine.FlagProbs{PCompressed: 0.05, PHit: 0.5, PFound: 0.98, PException: 0.01},
			PayloadMedian: 1000, PayloadSigma: 0.7,
			WantAccels: 25,
			RatekRPS:   14.2,
		},
	}
}

// ByName returns the named service from a catalog.
func ByName(svcs []*Service, name string) *Service {
	for _, s := range svcs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// MeanRatekRPS is the average of the services' Alibaba-like rates
// (the paper reports 13.4K RPS).
func MeanRatekRPS(svcs []*Service) float64 {
	var sum float64
	for _, s := range svcs {
		sum += s.RatekRPS
	}
	return sum / float64(len(svcs))
}
