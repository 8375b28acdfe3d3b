// SLO alerting over sampled series: threshold, absence and burn-rate rules
// evaluated after every sampling pass, with a per-(rule, source) state machine
// (idle → pending → firing → clearing → idle) that suppresses flapping: a rule
// must hold for its For duration before firing and stay healthy for its
// ClearFor duration before resolving, so a single noisy sample can neither
// fire nor resolve an alert. Transitions are emitted as "alert.fire" /
// "alert.resolve" trace events and counted in alert.* metrics, and every
// incident records its detection latency (condition onset → fire) and
// recovery latency (fire → resolve) in virtual time.
//
// Rule grammar (one rule per line or semicolon-separated; # starts a comment):
//
//	name: threshold <series> [last|min|max|avg|sum|rate|delta] <op> <value> [for <dur>] [window <dur>] [clear <dur>]
//	name: absence  <series> [above <value>] [window <dur>] [clear <dur>]
//	name: burnrate <errSeries> / <totalSeries> [budget <frac>] [x <mult>] [for <dur>] [window <dur>] [clear <dur>]
//
// <value> accepts plain numbers other than NaN or Go durations (converted to
// nanoseconds, the unit of all histogram-derived series); <dur> must not be
// negative, and budget and x must be positive. threshold compares the aggregated
// window value (default aggregation: last). absence fires when a series is
// stuck: every sample in the window is above the floor and the window shows no
// net decrease — e.g. a re-replication backlog that is not draining. burnrate
// fires when the windowed error ratio delta(err)/delta(total) exceeds
// budget × mult (an SLO burn-rate alert: with budget 0.01 and x 10, firing
// means the error budget is burning 10× faster than sustainable).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ros/internal/sim"
)

// RuleKind discriminates alert rule types.
type RuleKind string

const (
	RuleThreshold RuleKind = "threshold"
	RuleAbsence   RuleKind = "absence"
	RuleBurnRate  RuleKind = "burnrate"
)

// Rule is one alert rule. Zero Window/ClearFor inherit the sampler's window;
// zero For fires on the first bad sample.
type Rule struct {
	Name string
	Kind RuleKind

	// Series is the monitored series name (the error series for burnrate).
	Series string
	// TotalSeries is the burnrate denominator.
	TotalSeries string
	// Agg reduces the threshold window: last (default), min, max, avg, sum,
	// rate or delta.
	Agg string
	// Op is the threshold comparison: > >= < <= == !=.
	Op string
	// Value is the threshold (nanoseconds for duration-valued series) or the
	// absence floor.
	Value float64
	// Budget and Mult parameterize burnrate: fire when ratio > Budget*Mult.
	Budget float64
	Mult   float64

	// For is how long the condition must hold before firing.
	For time.Duration
	// Window overrides the sampler's evaluation window.
	Window time.Duration
	// ClearFor is how long the condition must stay false before a firing
	// alert resolves (flap suppression). Zero inherits the window.
	ClearFor time.Duration
}

// String renders the rule back in the parseable grammar.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s ", r.Name, r.Kind)
	switch r.Kind {
	case RuleThreshold:
		b.WriteString(r.Series)
		if r.Agg != "" {
			b.WriteString(" " + r.Agg)
		}
		fmt.Fprintf(&b, " %s %s", r.Op, formatValue(r.Value))
	case RuleAbsence:
		b.WriteString(r.Series)
		if r.Value != 0 {
			fmt.Fprintf(&b, " above %s", formatValue(r.Value))
		}
	case RuleBurnRate:
		fmt.Fprintf(&b, "%s / %s", r.Series, r.TotalSeries)
		if r.Budget != 0 && r.Budget != 0.01 {
			fmt.Fprintf(&b, " budget %g", r.Budget)
		}
		if r.Mult != 0 && r.Mult != 1 {
			fmt.Fprintf(&b, " x %g", r.Mult)
		}
	}
	if r.For > 0 {
		fmt.Fprintf(&b, " for %s", r.For)
	}
	if r.Window > 0 {
		fmt.Fprintf(&b, " window %s", r.Window)
	}
	if r.ClearFor > 0 {
		fmt.Fprintf(&b, " clear %s", r.ClearFor)
	}
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseRules parses a rule list: one rule per line or semicolon-separated,
// blank lines and #-comments ignored.
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, line := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' }) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// ParseRule parses one rule in the grammar documented at the top of the file.
func ParseRule(line string) (Rule, error) {
	var r Rule
	name, rest, ok := strings.Cut(line, ":")
	if !ok {
		return r, fmt.Errorf("obs: alert rule %q: missing \"name:\" prefix", line)
	}
	r.Name = strings.TrimSpace(name)
	if r.Name == "" {
		return r, fmt.Errorf("obs: alert rule %q: empty name", line)
	}
	tok := strings.Fields(rest)
	if len(tok) < 2 {
		return r, fmt.Errorf("obs: alert rule %q: missing body", r.Name)
	}
	r.Kind = RuleKind(tok[0])
	tok = tok[1:]
	next := func() (string, bool) {
		if len(tok) == 0 {
			return "", false
		}
		t := tok[0]
		tok = tok[1:]
		return t, true
	}
	switch r.Kind {
	case RuleThreshold:
		r.Series, _ = next()
		t, ok := next()
		if !ok {
			return r, fmt.Errorf("obs: rule %s: threshold needs an operator", r.Name)
		}
		switch t {
		case "last", "min", "max", "avg", "sum", "rate", "delta":
			r.Agg = t
			if t, ok = next(); !ok {
				return r, fmt.Errorf("obs: rule %s: threshold needs an operator", r.Name)
			}
		}
		switch t {
		case ">", ">=", "<", "<=", "==", "!=":
			r.Op = t
		default:
			return r, fmt.Errorf("obs: rule %s: bad operator %q", r.Name, t)
		}
		v, ok := next()
		if !ok {
			return r, fmt.Errorf("obs: rule %s: threshold needs a value", r.Name)
		}
		val, err := parseValue(v)
		if err != nil {
			return r, fmt.Errorf("obs: rule %s: %v", r.Name, err)
		}
		r.Value = val
	case RuleAbsence:
		r.Series, _ = next()
	case RuleBurnRate:
		r.Series, _ = next()
		if t, _ := next(); t != "/" {
			return r, fmt.Errorf("obs: rule %s: burnrate needs \"err / total\"", r.Name)
		}
		r.TotalSeries, _ = next()
		if r.TotalSeries == "" {
			return r, fmt.Errorf("obs: rule %s: burnrate needs a total series", r.Name)
		}
		r.Budget, r.Mult = 0.01, 1
	default:
		return r, fmt.Errorf("obs: rule %s: unknown kind %q", r.Name, tok[0])
	}
	if r.Series == "" {
		return r, fmt.Errorf("obs: rule %s: missing series name", r.Name)
	}
	for len(tok) > 0 {
		key, _ := next()
		arg, ok := next()
		if !ok {
			return r, fmt.Errorf("obs: rule %s: %q needs an argument", r.Name, key)
		}
		switch key {
		case "for", "window", "clear":
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return r, fmt.Errorf("obs: rule %s: bad %s duration %q", r.Name, key, arg)
			}
			switch key {
			case "for":
				r.For = d
			case "window":
				r.Window = d
			case "clear":
				r.ClearFor = d
			}
		case "above":
			if r.Kind != RuleAbsence {
				return r, fmt.Errorf("obs: rule %s: \"above\" only applies to absence rules", r.Name)
			}
			v, err := parseValue(arg)
			if err != nil {
				return r, fmt.Errorf("obs: rule %s: %v", r.Name, err)
			}
			r.Value = v
		case "budget", "x":
			if r.Kind != RuleBurnRate {
				return r, fmt.Errorf("obs: rule %s: %q only applies to burnrate rules", r.Name, key)
			}
			// Zero would read as the default (0.01 or 1), a negative budget
			// or multiplier fires on every sample, and NaN never compares.
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(f > 0) {
				return r, fmt.Errorf("obs: rule %s: bad %s %q (want a positive number)", r.Name, key, arg)
			}
			if key == "budget" {
				r.Budget = f
			} else {
				r.Mult = f
			}
		default:
			return r, fmt.Errorf("obs: rule %s: unknown clause %q", r.Name, key)
		}
	}
	return r, nil
}

// parseValue accepts a plain number or a Go duration (as nanoseconds). NaN
// is refused: it compares false with everything, so the rule could never
// fire.
func parseValue(s string) (float64, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) {
		return f, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d), nil
	}
	return 0, fmt.Errorf("bad value %q (want number or duration)", s)
}

// alertPhase is one state of the per-(rule, source) machine.
type alertPhase int

const (
	phaseIdle alertPhase = iota
	phasePending
	phaseFiring
	phaseClearing
)

func (p alertPhase) String() string {
	switch p {
	case phasePending:
		return "pending"
	case phaseFiring:
		return "firing"
	case phaseClearing:
		return "clearing"
	}
	return "idle"
}

// alertKey names one (rule, source) state machine.
type alertKey struct{ rule, label string }

type alertState struct {
	phase    alertPhase
	since    time.Duration // entry time of the current phase
	onset    time.Duration // when the condition first went bad (detection anchor)
	firedAt  time.Duration
	incident int // open incident index while firing/clearing
}

// Incident is one fire→resolve episode in the engine's log.
type Incident struct {
	Rule  string `json:"rule"`
	Label string `json:"label,omitempty"`
	// OnsetNS is when the condition first turned bad; FiredNS - OnsetNS is
	// the detection latency introduced by the rule's For damping.
	OnsetNS    int64   `json:"onset_ns"`
	FiredNS    int64   `json:"fired_ns"`
	ResolvedNS int64   `json:"resolved_ns"` // -1 while still firing
	Value      float64 `json:"value"`       // observed value at fire time
	Open       bool    `json:"open"`
}

// ActiveAlert describes one (rule, source) state for status displays.
type ActiveAlert struct {
	Rule    string  `json:"rule"`
	Label   string  `json:"label,omitempty"`
	State   string  `json:"state"`
	SinceNS int64   `json:"since_ns"`
	Value   float64 `json:"value"`
}

// AlertEngine evaluates rules against a Sampler's series after each pass.
type AlertEngine struct {
	env     *sim.Env
	sampler *Sampler
	rules   []Rule
	states  map[alertKey]*alertState
	log     []Incident

	fired     *Counter
	resolved  *Counter
	firing    *Gauge
	detection *Histogram // onset to fire
	recovery  *Histogram // fire to resolve
}

// NewAlertEngine creates an engine over sampler, recording alert.* metrics
// into reg (typically the system registry) and trace events into env. Call
// Attach to hook evaluation to the sampler's passes.
func NewAlertEngine(env *sim.Env, sampler *Sampler, reg *Registry) *AlertEngine {
	e := &AlertEngine{
		env:     env,
		sampler: sampler,
		states:  make(map[alertKey]*alertState),
	}
	e.fired = reg.Counter("alert.fired")
	e.resolved = reg.Counter("alert.resolved")
	e.firing = reg.Gauge("alert.firing")
	e.detection = reg.Histogram("alert.detection")
	e.recovery = reg.Histogram("alert.recovery")
	return e
}

// AddRules appends rules to the engine. Rules naming series that never
// materialize are inert.
func (e *AlertEngine) AddRules(rules ...Rule) {
	if e != nil {
		e.rules = append(e.rules, rules...)
	}
}

// Rules returns the configured rules.
func (e *AlertEngine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return e.rules
}

// Attach hooks the engine to the sampler: every sampling pass triggers an
// evaluation of all rules.
func (e *AlertEngine) Attach() {
	if e != nil && e.sampler != nil {
		e.sampler.OnSample(e.Eval)
	}
}

// Eval evaluates every rule against every source that carries its series,
// sources in registration order.
func (e *AlertEngine) Eval(t time.Duration) {
	if e == nil || e.sampler == nil {
		return
	}
	for i := range e.rules {
		r := &e.rules[i]
		for _, src := range e.sampler.sources {
			if sr, ok := src.series[r.Series]; ok {
				bad, val := e.check(r, sr)
				e.step(r, sr.Label, t, bad, val)
			}
		}
	}
}

// check evaluates one rule against one source's series.
func (e *AlertEngine) check(r *Rule, sr *Series) (bad bool, val float64) {
	window := r.Window
	if window <= 0 {
		window = sampleWindow
	}
	switch r.Kind {
	case RuleThreshold:
		val = sr.Agg(r.Agg, window)
		switch r.Op {
		case ">":
			bad = val > r.Value
		case ">=":
			bad = val >= r.Value
		case "<":
			bad = val < r.Value
		case "<=":
			bad = val <= r.Value
		case "==":
			bad = val == r.Value
		case "!=":
			bad = val != r.Value
		}
	case RuleAbsence:
		// Stuck series: every sample in the window above the floor and no
		// net drain. Requires the window to be fully covered by history so a
		// freshly started run cannot fire spuriously.
		val = sr.Last().V
		if sr.Len() < 2 {
			return false, val
		}
		cut := sr.Last().T - int64(window)
		if sr.At(0).T > cut+int64(e.sampler.cfg.Interval) {
			return false, val
		}
		i, _ := sr.windowStart(window)
		mn := sr.At(i).V
		for j := i; j < sr.Len(); j++ {
			if v := sr.At(j).V; v < mn {
				mn = v
			}
		}
		bad = mn > r.Value && sr.Last().V >= sr.At(i).V
	case RuleBurnRate:
		total := e.sampler.Get(sr.Label, r.TotalSeries)
		if total == nil {
			return false, 0
		}
		errDelta, totDelta := sr.Delta(window), total.Delta(window)
		if totDelta > 0 {
			val = errDelta / totDelta
		}
		mult := r.Mult
		if mult == 0 {
			mult = 1
		}
		budget := r.Budget
		if budget == 0 {
			budget = 0.01
		}
		bad = val > budget*mult
	}
	return bad, val
}

// step advances the (rule, label) state machine.
func (e *AlertEngine) step(r *Rule, label string, t time.Duration, bad bool, val float64) {
	key := alertKey{r.Name, label}
	st, ok := e.states[key]
	if !ok {
		st = &alertState{incident: -1}
		e.states[key] = st
	}
	clearFor := r.ClearFor
	if clearFor <= 0 {
		clearFor = r.Window
	}
	if clearFor <= 0 {
		clearFor = sampleWindow
	}
	switch st.phase {
	case phaseIdle:
		if bad {
			st.onset = t
			if r.For <= 0 {
				e.fire(r, label, st, t, val)
			} else {
				st.phase, st.since = phasePending, t
			}
		}
	case phasePending:
		if !bad {
			st.phase = phaseIdle
		} else if t-st.since >= r.For {
			e.fire(r, label, st, t, val)
		}
	case phaseFiring:
		if !bad {
			st.phase, st.since = phaseClearing, t
		}
	case phaseClearing:
		if bad {
			// Relapse within ClearFor: keep the original incident open —
			// this is the flap suppression that prevents fire/resolve churn.
			st.phase, st.since = phaseFiring, st.firedAt
		} else if t-st.since >= clearFor {
			e.resolve(r, label, st, t)
		}
	}
}

func (e *AlertEngine) fire(r *Rule, label string, st *alertState, t time.Duration, val float64) {
	st.phase, st.since, st.firedAt = phaseFiring, t, t
	st.incident = len(e.log)
	e.log = append(e.log, Incident{
		Rule:       r.Name,
		Label:      label,
		OnsetNS:    int64(st.onset),
		FiredNS:    int64(t),
		ResolvedNS: -1,
		Value:      val,
		Open:       true,
	})
	e.fired.Add(1)
	e.firing.Add(1)
	e.detection.Observe(int64(t - st.onset))
	if e.env != nil {
		e.env.Emit("alert.fire", "", func() string { return alertMsg(r.Name, label, val) })
	}
}

func (e *AlertEngine) resolve(r *Rule, label string, st *alertState, t time.Duration) {
	if st.incident >= 0 && st.incident < len(e.log) {
		e.log[st.incident].ResolvedNS = int64(t)
		e.log[st.incident].Open = false
	}
	st.phase, st.incident = phaseIdle, -1
	e.resolved.Add(1)
	e.firing.Add(-1)
	e.recovery.Observe(int64(t - st.firedAt))
	if e.env != nil {
		e.env.Emit("alert.resolve", "", func() string { return alertMsg(r.Name, label, 0) })
	}
}

func alertMsg(rule, label string, val float64) string {
	if label == "" {
		return rule
	}
	return fmt.Sprintf("%s[%s] v=%g", rule, label, val)
}

// Firing returns every (rule, source) currently in the firing or clearing
// phase, sorted by rule name then label.
func (e *AlertEngine) Firing() []ActiveAlert {
	return e.active(func(p alertPhase) bool { return p == phaseFiring || p == phaseClearing })
}

// States returns every non-idle (rule, source) state, sorted.
func (e *AlertEngine) States() []ActiveAlert {
	return e.active(func(p alertPhase) bool { return p != phaseIdle })
}

func (e *AlertEngine) active(keep func(alertPhase) bool) []ActiveAlert {
	if e == nil {
		return nil
	}
	var out []ActiveAlert
	for key, st := range e.states {
		if !keep(st.phase) {
			continue
		}
		a := ActiveAlert{
			Rule:    key.rule,
			Label:   key.label,
			State:   st.phase.String(),
			SinceNS: int64(st.since),
		}
		if st.incident >= 0 && st.incident < len(e.log) {
			a.Value = e.log[st.incident].Value
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Incidents returns the full fire→resolve log in firing order.
func (e *AlertEngine) Incidents() []Incident {
	if e == nil {
		return nil
	}
	out := make([]Incident, len(e.log))
	copy(out, e.log)
	return out
}

// IncidentsJSON renders the incident log as indented deterministic JSON.
func (e *AlertEngine) IncidentsJSON() ([]byte, error) {
	in := e.Incidents()
	if in == nil {
		in = []Incident{}
	}
	return json.MarshalIndent(in, "", "  ")
}
