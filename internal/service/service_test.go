package service

import (
	"strings"
	"testing"
)

// TestConfigRejectsInvalid: withDefaults refuses configurations that
// would otherwise serve something other than what the operator asked for.
func TestConfigRejectsInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative profile cache", Config{ProfileCache: -1}, "negative profile cache"},
		{"unknown preset", Config{Preset: "nope"}, "unknown preset"},
		{"threshold above one", Config{Threshold: 1.5}, "out of [0,1]"},
		{"negative threshold", Config{Threshold: -0.1}, "out of [0,1]"},
		{"unknown role", Config{Role: "observer"}, "unknown role"},
		{"follower without peer", Config{Role: RoleFollower}, "needs a peer URL"},
		{"leader with peer", Config{Role: RoleLeader, PeerURL: "http://leader"}, "does not take a peer URL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.withDefaults()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("withDefaults(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
			}
		})
	}
}
