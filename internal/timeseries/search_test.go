package timeseries

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestBestAlignmentExactMatch(t *testing.T) {
	s := Series{0, 0, 1, 2, 3, 0, 0}
	q := Series{1, 2, 3}
	off, d, err := BestAlignment(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if off != 2 || d != 0 {
		t.Fatalf("off=%d d=%v, want off=2 d=0", off, d)
	}
}

func TestBestAlignmentFullLength(t *testing.T) {
	s := Series{1, 2, 3}
	off, d, err := BestAlignment(s, slices.Clone(s))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 || d != 0 {
		t.Fatalf("off=%d d=%v", off, d)
	}
}

func TestBestAlignmentErrors(t *testing.T) {
	if _, _, err := BestAlignment(Series{1, 2}, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty query: %v", err)
	}
	if _, _, err := BestAlignment(Series{1}, Series{1, 2}); err == nil {
		t.Fatal("query longer than series should error")
	}
}

func TestBestAlignmentIsGlobalMinimum(t *testing.T) {
	// Brute-force cross-check on random inputs (validates the early-
	// abandon optimization).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		s := make(Series, 20)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		q := make(Series, 5)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		off, d, err := BestAlignment(s, q)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		bestOff, bestD := -1, 0.0
		for o := 0; o+len(q) <= len(s); o++ {
			var acc float64
			for i := range q {
				dd := s[o+i] - q[i]
				acc += dd * dd
			}
			if bestOff < 0 || acc < bestD {
				bestOff, bestD = o, acc
			}
		}
		if off != bestOff {
			t.Fatalf("trial %d: offset %d != brute-force %d", trial, off, bestOff)
		}
		if !almostEq(d*d, bestD, 1e-9) {
			t.Fatalf("trial %d: distance² %v != %v", trial, d*d, bestD)
		}
	}
}

func TestClosestProfilesRanking(t *testing.T) {
	profiles := []Series{
		{0, 0, 0, 0}, // distance 2 from query at best
		{5, 1, 1, 5}, // contains the query exactly
		{9, 9, 9, 9}, // far
	}
	query := Series{1, 1}
	matches, err := ClosestProfiles(profiles, query, 3)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Profile != 1 || matches[0].Distance != 0 || matches[0].Offset != 1 {
		t.Fatalf("best match = %+v", matches[0])
	}
	if matches[1].Profile != 0 {
		t.Fatalf("second match = %+v", matches[1])
	}
	if matches[2].Profile != 2 {
		t.Fatalf("third match = %+v", matches[2])
	}
	// Distances sorted ascending.
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Fatalf("matches not sorted: %+v", matches)
		}
	}
}

func TestClosestProfilesTopM(t *testing.T) {
	profiles := []Series{{0, 0}, {1, 1}, {2, 2}}
	matches, err := ClosestProfiles(profiles, Series{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("len = %d, want 2", len(matches))
	}
	// Asking for more matches than profiles returns all of them.
	all, err := ClosestProfiles(profiles, Series{0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("len = %d, want 3", len(all))
	}
}

func TestClosestProfilesTieBreak(t *testing.T) {
	profiles := []Series{{1, 1}, {1, 1}}
	matches, err := ClosestProfiles(profiles, Series{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Profile != 0 || matches[1].Profile != 1 {
		t.Fatalf("tie break not by index: %+v", matches)
	}
}

func TestClosestProfilesErrors(t *testing.T) {
	if _, err := ClosestProfiles(nil, Series{1}, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("no profiles: %v", err)
	}
	if _, err := ClosestProfiles([]Series{{1}}, Series{1}, 0); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := ClosestProfiles([]Series{{1}}, Series{1, 2}, 1); err == nil {
		t.Fatal("query longer than profile should error")
	}
}

func TestNearestSeries(t *testing.T) {
	set := []Series{{0, 0}, {5, 5}, {1, 1}}
	idx, sq, err := NearestSeries(set, Series{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("idx = %d, want 2", idx)
	}
	if !almostEq(sq, 0.02, 1e-9) {
		t.Fatalf("sq = %v", sq)
	}
}

func TestNearestSeriesErrors(t *testing.T) {
	if _, _, err := NearestSeries(nil, Series{1}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty set: %v", err)
	}
	if _, _, err := NearestSeries([]Series{{1, 2}}, Series{1}); err == nil {
		t.Fatal("dim mismatch should error")
	}
}
