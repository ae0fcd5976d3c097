package qcache_test

import (
	"strings"
	"testing"

	"hyperq/internal/qcache"
	"hyperq/internal/qgen"
	"hyperq/internal/workload"
)

// FuzzLift holds lifting to its contract on arbitrary q text: it never
// panics; putting each lifted literal's text back into its hole reproduces
// the normalized input; and every probe, an in-class change of each lifted
// literal, lifts to the same skeleton.
func FuzzLift(f *testing.F) {
	for _, q := range workload.Queries() {
		f.Add(q.Q, uint8(0))
	}
	g := qgen.New(qgen.Config{Seed: 1})
	for i := 0; i < 50; i++ {
		f.Add(g.Query().Q(), uint8(i))
	}
	f.Fuzz(func(t *testing.T, q string, p uint8) {
		text := qcache.Normalize(q)
		skel, spans, ok := qcache.Lift(text)
		if !ok {
			return
		}
		// holes are three bytes: NUL, type, suffix
		back, from, shift := "", 0, 0
		for _, sp := range spans {
			at := sp[0] - shift
			if skel[at] != 0 {
				t.Fatalf("%q: no hole at %d of skeleton %q", text, at, skel)
			}
			back += skel[from:at] + text[sp[0]:sp[1]]
			from = at + 3
			shift += sp[1] - sp[0] - 3
		}
		if back += skel[from:]; back != text {
			t.Fatalf("%q: spans put back give %q", text, back)
		}
		// sentinels leave the short range past a few thousand slots
		if probe, _, ok := qcache.Probe(text, int(p)); !ok && len(spans) < 1000 {
			t.Fatalf("%q: probe %d (%q) does not lift to its skeleton", text, p, probe)
		}
	})
}

// TestPerturbedQueriesKeepTheirSkeleton: qdiff's perturbation arm changes
// literals within their lift class, so outside strands (in lists) a
// perturbed query shares its original's skeleton and template.
func TestPerturbedQueriesKeepTheirSkeleton(t *testing.T) {
	g := qgen.New(qgen.Config{Seed: 7})
	changed := 0
	for i := 0; i < 2000; i++ {
		q := g.Query()
		orig, pert := q.Q(), q.Perturbed().Q()
		if strings.Contains(orig, " in ") {
			continue
		}
		skel, _, ok := qcache.Lift(qcache.Normalize(orig))
		pskel, _, pok := qcache.Lift(qcache.Normalize(pert))
		if ok != pok || skel != pskel {
			t.Fatalf("%q and its perturbation %q lift to different skeletons", orig, pert)
		}
		if orig != pert {
			changed++
		}
	}
	if changed < 500 {
		t.Fatalf("only %d of 2000 queries had a literal to perturb", changed)
	}
}
