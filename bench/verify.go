package main

import (
	"bytes"
	"fmt"

	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/sidebyside"
)

// floatTol is the relative float tolerance of the repo's side-by-side tests.
const floatTol = 1e-9

// reference answers ops with the q interpreter over the generated tables. It
// never touches the stack under test.
func reference(ds *dataset, prelude []string, ops []op) ([]qval.Value, error) {
	in := interp.New()
	for _, t := range ds.tables {
		in.SetGlobal(t.name, t.tbl)
	}
	for _, q := range prelude {
		if _, err := in.Eval(q); err != nil {
			return nil, fmt.Errorf("interpreter: prelude %q: %w", q, err)
		}
	}
	out := make([]qval.Value, len(ops))
	for i, o := range ops {
		v, err := in.Eval(o.q)
		if err != nil {
			return nil, fmt.Errorf("interpreter: %q: %w", o.q, err)
		}
		out[i] = v
	}
	return out, nil
}

// verifyWarm decodes every warm-up reply in full and diffs it against the
// interpreter's answer. It returns the row count of each key's reply and the
// divergences found.
func verifyWarm(s *session) (rows map[string]int, diverged []string, err error) {
	refs, err := reference(s.ds, s.spec.prelude, s.warmOps)
	if err != nil {
		return nil, nil, err
	}
	rows = map[string]int{}
	for i, o := range s.warmOps {
		got, err := decodeFrame(s.warmFrames[i])
		if err != nil {
			diverged = append(diverged, fmt.Sprintf("%q: undecodable reply: %v", o.q, err))
			continue
		}
		if d := sidebyside.Diff(refs[i], got, floatTol); len(d) > 0 {
			diverged = append(diverged, fmt.Sprintf("%q: %s", o.q, d[0]))
		}
		if _, seen := rows[o.key]; !seen {
			rows[o.key] = got.Len()
		}
		// two texts of one key must have equal replies, or the length check
		// of the timed window would be checking the wrong thing
		if n, want := messageLen(s.warmFrames[i]), s.want[o.key]; n != want {
			diverged = append(diverged, fmt.Sprintf("%q: %d-byte reply, key %s was %d bytes", o.q, n, o.key, want))
		}
	}
	return rows, diverged, nil
}

// sameFrames compares the warm-up replies of two topologies byte for byte.
func sameFrames(a, b *session) []string {
	var out []string
	if len(a.warmFrames) != len(b.warmFrames) {
		return []string{fmt.Sprintf("%d warm-up replies against %d", len(a.warmFrames), len(b.warmFrames))}
	}
	for i := range a.warmFrames {
		if !bytes.Equal(a.warmFrames[i], b.warmFrames[i]) {
			out = append(out, fmt.Sprintf("%q: spawned and in-process replies differ (%d and %d bytes)",
				a.warmOps[i].q, len(a.warmFrames[i]), len(b.warmFrames[i])))
		}
	}
	return out
}
