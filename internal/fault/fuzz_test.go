package fault

import "testing"

// FuzzParseSpec drives the -faults grammar with arbitrary input. It must
// never panic, and every program it accepts must render (Program.String)
// to a spec that parses again and renders to the same string: the
// canonical form is a fixed point.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"drop:prn=7,from=100,until=300",
		"step:prn=3,bias=75,from=50,until=250; ramp:prn=12,rate=0.5,from=0",
		"burst:sigma=15,from=400,until=460;clockjump:at=500,bias=0.001",
		"shrink:n=3,from=600,until=700;panic:at=50,until=53",
		"spoof:n=2,bias=300,from=100,until=220;jam:sigma=20,from=300,until=360",
		"drop:n=4,bias=-0,until=+Inf", "step:bias=1e308,from=-Inf,until=-Inf", ";;drop;", "jam:sigma=0x1p-3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		prog, err := ParseSpec(spec)
		if err != nil {
			return
		}
		canon := prog.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q renders as %q", spec, canon, got)
		}
	})
}
