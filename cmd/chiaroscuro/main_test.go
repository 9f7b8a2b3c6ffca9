package main

import (
	"strings"
	"testing"
)

// TestLoad pins the CLI's handling of user-supplied -dataset/-n: bad
// values come back as one-line errors (main exits 1 on them), never as
// a panic from the known-good-options generator wrappers.
func TestLoad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dataset string
		n       int
		dim     int    // expected series length on success
		wantErr string // expected error substring; "" = success
	}{
		{"cer", "cer", 7, 24, ""},
		{"tumor", "tumor", 5, 20, ""},
		{"cer n=0", "cer", 0, 0, "population 0 < 1"},
		{"tumor n<0", "tumor", -3, 0, "population -3 < 1"},
		{"unknown dataset", "mnist", 10, 0, `unknown dataset "mnist"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series, labels, archetypes, err := load(tc.dataset, tc.n, 1)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("load(%q, %d) error = %v, want one containing %q", tc.dataset, tc.n, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(series) != tc.n || len(labels) != tc.n || len(series[0]) != tc.dim || len(archetypes) == 0 {
				t.Fatalf("load(%q, %d) = %d series of %d samples, %d labels, %d archetypes",
					tc.dataset, tc.n, len(series), len(series[0]), len(labels), len(archetypes))
			}
		})
	}
}
