package main

import (
	"strings"
	"testing"
	"time"
)

func goodDaemonArgs() daemonArgs {
	return daemonArgs{
		addr:         ":8080",
		workers:      2,
		queue:        8,
		retryAfter:   time.Second,
		drainTimeout: 2 * time.Minute,
		cacheSize:    512,
		heartbeat:    15 * time.Second,
	}
}

// TestDaemonValidateFlags pins the exit-2 upfront-validation contract
// for accelsimd: each bad value is rejected with a message naming the
// flag before the scheduler or listener exists.
func TestDaemonValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*daemonArgs)
		want string // error substring; "" = valid
	}{
		{"defaults", func(a *daemonArgs) {}, ""},
		{"cache disabled", func(a *daemonArgs) { a.cacheSize = 0 }, ""},
		{"cache sized", func(a *daemonArgs) { a.cacheSize = 64 }, ""},
		{"negative cache", func(a *daemonArgs) { a.cacheSize = -1 }, "-cache"},
		{"zero workers", func(a *daemonArgs) { a.workers = 0 }, "-workers"},
		{"negative workers", func(a *daemonArgs) { a.workers = -4 }, "-workers"},
		{"zero queue", func(a *daemonArgs) { a.queue = 0 }, "-queue"},
		{"empty addr", func(a *daemonArgs) { a.addr = "" }, "-addr"},
		{"negative retryafter", func(a *daemonArgs) { a.retryAfter = -time.Second }, "-retryafter"},
		{"negative draintimeout", func(a *daemonArgs) { a.drainTimeout = -time.Minute }, "-draintimeout"},
		{"heartbeats disabled", func(a *daemonArgs) { a.heartbeat = 0 }, ""},
		{"negative heartbeat", func(a *daemonArgs) { a.heartbeat = -time.Second }, "-heartbeat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := goodDaemonArgs()
			tc.mut(&a)
			err := a.validate()
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
