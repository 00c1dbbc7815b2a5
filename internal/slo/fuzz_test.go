package slo

import (
	"math"
	"testing"
)

// FuzzParseObjectives drives the -slo grammar with arbitrary input. It
// must never panic, and every objective it accepts must pass validate,
// with a finite target and a positive error budget: the evaluator never
// sees a configuration its burn machinery cannot run.
func FuzzParseObjectives(f *testing.F) {
	for _, s := range []string{
		"availability>=99.9@600,p99_rms<=8@600,chi2>=98@600",
		"chi2>=95@300", "p50_rms<=3.5@10", " , availability>=50@10 ,", "p0_rms<=1@10",
		"availability>=100@600", "p99_rms<=NaN@600", "chi2>=9e1@-5", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		if len(objs) == 0 {
			t.Fatalf("ParseObjectives(%q) accepted no objectives", spec)
		}
		for _, o := range objs {
			if verr := o.validate(); verr != nil {
				t.Fatalf("ParseObjectives(%q) accepted %+v: %v", spec, o, verr)
			}
			if math.IsNaN(o.Target) || math.IsInf(o.Target, 0) || !(o.allowed() > 0) {
				t.Fatalf("ParseObjectives(%q) accepted %+v with budget %v", spec, o, o.allowed())
			}
		}
	})
}
