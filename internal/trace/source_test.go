package trace

import (
	"slices"
	"testing"
)

func drain(src Source) []Request {
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestReplaySortsStablyWithoutTouchingInput(t *testing.T) {
	in := []Request{
		{ID: 0, Arrival: 3},
		{ID: 1, Arrival: 1},
		{ID: 2, Arrival: 3},
		{ID: 3, Arrival: 0.5},
		{ID: 4, Arrival: 1},
	}
	orig := slices.Clone(in)
	var ids []uint64
	for _, r := range drain(Replay(in)) {
		ids = append(ids, r.ID)
	}
	// Equal arrivals keep their input order: 1 before 4, 0 before 2.
	if want := []uint64{3, 1, 4, 0, 2}; !slices.Equal(ids, want) {
		t.Errorf("replay order %v, want %v", ids, want)
	}
	if !slices.Equal(in, orig) {
		t.Errorf("Replay modified its input: %v, was %v", in, orig)
	}
}

func TestReplayMatchesGenerate(t *testing.T) {
	cfg := Config{Rate: Constant(200), Mix: baseMix(), Duration: 10, Seed: 3}
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := drain(Replay(reqs)); !slices.Equal(got, reqs) {
		t.Fatalf("replay of a sorted trace differs from it (%d vs %d requests)", len(got), len(reqs))
	}
	if got := drain(Replay(nil)); len(got) != 0 {
		t.Errorf("empty replay yielded %d requests", len(got))
	}
}
