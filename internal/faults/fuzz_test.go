package faults

import "testing"

// FuzzParseSpecRoundTrip: every plan text ParseSpec accepts renders to
// a canonical String that parses back to an equal Spec with the same
// String. serve's spec digest embeds that canonical text, so a plan
// whose rendering did not round-trip would split or alias cache keys.
// The seed corpus in testdata/fuzz holds the presets, "none", and the
// k=v plans the documentation and tests use.
func FuzzParseSpecRoundTrip(f *testing.F) {
	f.Add("none")
	for _, p := range Presets() {
		f.Add(p.Name)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v renders %q, which does not parse: %v", text, s, canon, err)
		}
		if again != s {
			t.Fatalf("ParseSpec(%q) = %+v, but its rendering %q parses to %+v", text, s, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("ParseSpec(%q) renders %q, then %q", text, canon, again.String())
		}
	})
}
