package transport

import (
	"testing"
	"time"
)

// TestTransportConfigErrors pins the exact error text of every
// transport Config validation path, in the same spirit as the root
// package's TestConfigValidationErrors: operators script against these
// messages (launchers grep daemon stderr), so a wording change should
// be a conscious one.
func TestTransportConfigErrors(t *testing.T) {
	valid := func() Config {
		return Config{
			ID:           1,
			Population:   3,
			Listen:       "127.0.0.1:0",
			AddrDir:      "/tmp/mesh",
			EpochTimeout: time.Second,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{
			name:   "population too small",
			mutate: func(c *Config) { c.Population = 1 },
			want:   "transport: population must be at least 2",
		},
		{
			name:   "negative id",
			mutate: func(c *Config) { c.ID = -1 },
			want:   "transport: node id -1 outside population [0, 3)",
		},
		{
			name:   "id at population",
			mutate: func(c *Config) { c.ID = 3 },
			want:   "transport: node id 3 outside population [0, 3)",
		},
		{
			name:   "missing listen address",
			mutate: func(c *Config) { c.Listen = "" },
			want:   "transport: listen address is required",
		},
		{
			name:   "neither peers nor rendezvous dir",
			mutate: func(c *Config) { c.AddrDir = "" },
			want:   "transport: exactly one of peer list and rendezvous dir is required",
		},
		{
			name: "both peers and rendezvous dir",
			mutate: func(c *Config) {
				c.Peers = []string{"a:1", "", "c:3"}
			},
			want: "transport: exactly one of peer list and rendezvous dir is required",
		},
		{
			name: "peer list wrong length",
			mutate: func(c *Config) {
				c.AddrDir = ""
				c.Peers = []string{"a:1", "b:2"}
			},
			want: "transport: peer list has 2 addresses, want one per node (3)",
		},
		{
			name: "empty peer address",
			mutate: func(c *Config) {
				c.AddrDir = ""
				c.Peers = []string{"a:1", "", ""}
			},
			want: "transport: peer 2 has an empty address",
		},
		{
			name:   "zero epoch timeout",
			mutate: func(c *Config) { c.EpochTimeout = 0 },
			want:   "transport: epoch timeout must be positive",
		},
		{
			name:   "negative epoch timeout",
			mutate: func(c *Config) { c.EpochTimeout = -time.Second },
			want:   "transport: epoch timeout must be positive",
		},
		{
			name:   "negative grace",
			mutate: func(c *Config) { c.Grace = -time.Second },
			want:   "transport: grace must not be negative",
		},
		{
			name:   "negative checkpoint interval",
			mutate: func(c *Config) { c.CheckpointEvery = -1 },
			want:   "transport: checkpoint interval must not be negative",
		},
		{
			name:   "checkpoint interval without dir",
			mutate: func(c *Config) { c.CheckpointEvery = 2 },
			want:   "transport: checkpoint interval requires a checkpoint dir",
		},
		{
			name:   "resume without dir",
			mutate: func(c *Config) { c.Resume = true },
			want:   "transport: resume requires a checkpoint dir",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid config %+v", cfg)
			}
			if err.Error() != tc.want {
				t.Fatalf("error text:\n got: %s\nwant: %s", err, tc.want)
			}
		})
	}

	// The baseline and the peer-list variant must both validate: the
	// slot at the node's own id is allowed to stay empty.
	cfg := valid()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid rendezvous config rejected: %v", err)
	}
	cfg = valid()
	cfg.AddrDir = ""
	cfg.Peers = []string{"a:1", "", "c:3"}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid peer-list config rejected: %v", err)
	}

	// A fully crash-tolerant configuration must validate too.
	cfg = valid()
	cfg.Grace = time.Second
	cfg.CheckpointDir = "/tmp/ckpt"
	cfg.CheckpointEvery = 2
	cfg.Resume = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid crash-tolerant config rejected: %v", err)
	}
}
