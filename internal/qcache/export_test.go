package qcache

// Lift exposes lifting to the package's external tests: the skeleton of
// normalized text and each lifted literal's byte span.
func Lift(text string) (skel string, spans [][2]int, ok bool) {
	l, ok := lift(text)
	for _, s := range l.slots {
		spans = append(spans, [2]int{s.start, s.end})
	}
	return l.skel, spans, ok
}

// Probe exposes probe p of text's skeleton: its text and the SQL rendering
// of each slot's sentinel.
func Probe(text string, p int) (string, []string, bool) {
	l, ok := lift(text)
	if !ok {
		return "", nil, false
	}
	return l.probe(p)
}
