package obs_test

import (
	"strings"
	"testing"

	"ros"
	"ros/internal/obs"
)

// FuzzParseRules fuzzes the alert-rule grammar (Options.Rules is user
// input): any input must either be rejected with an error or yield rules
// that String renders back into exactly the same rules. The committed corpus
// keeps the escapes this has caught: a zero budget or multiplier that
// re-parsed as the default, "last" spelled out, negative durations, and NaN
// values.
func FuzzParseRules(f *testing.F) {
	for _, line := range strings.Split(ros.DefaultRuleSpec, "\n") {
		f.Add(line)
	}
	f.Add(ros.DefaultRuleSpec)
	for _, s := range []string{
		// Every clause of each kind.
		"lat: threshold olfs.op.read.p99 max >= 1.5e9 for 30s window 2m clear 1m",
		"q: threshold sched.queue_depth rate != -2 window 10m",
		"stuck: absence cluster.rerepl_backlog above 5m window 10m clear 30s",
		"slo: burnrate e / t budget 0.001 x 14.4 for 1m window 1h clear 5m",
		// Separators, comments and blank fragments.
		"a: threshold x > 1; b: threshold y < 2 # trailing comment\n\n;",
		"# only a comment",
		"  spaced name :   threshold   x   >   1  ",
		// Malformed inputs.
		"",
		"no colon",
		": threshold x > 1",
		"n:",
		"n: threshold",
		"n: threshold x",
		"n: threshold x max",
		"n: threshold x ~ 1",
		"n: threshold x > one",
		"n: threshold x > 1 for",
		"n: threshold x > 1 for soon",
		"n: threshold x > 1 above 2",
		"n: threshold x > 1 budget 2",
		"n: threshold x > 1 bogus 2",
		"n: absence",
		"n: burnrate e",
		"n: burnrate e /",
		"n: burnrate e % t",
		"n: burnrate e / t budget",
		"n: burnrate e / t x many",
		"n: gauge x > 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := obs.ParseRules(spec)
		if err != nil {
			return
		}
		for i, r := range rules {
			out := r.String()
			got, err := obs.ParseRules(out)
			if err != nil {
				t.Fatalf("spec %q: rule %d renders as %q, which does not parse: %v", spec, i, out, err)
			}
			if len(got) != 1 || got[0] != r {
				t.Fatalf("spec %q: rule %d round trip changed:\n  parsed  %#v\n  renders %q\n  reparse %#v",
					spec, i, r, out, got)
			}
		}
	})
}
