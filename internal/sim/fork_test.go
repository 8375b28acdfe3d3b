package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// completionJoin is the join Fork replaces: one child per index started with
// Go, each resolving its own Completion, waited on in index order.
func completionJoin(p *Proc, name string, n int, body func(sp *Proc, i int) error) error {
	env := p.Env()
	comps := make([]*Completion[struct{}], n)
	for i := range comps {
		c := NewCompletion[struct{}](env)
		comps[i] = c
		env.Go(name, func(sp *Proc) { c.Resolve(struct{}{}, body(sp, i)) })
	}
	var first error
	for _, c := range comps {
		if _, err := c.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func forkJoin(p *Proc, name string, n int, body func(sp *Proc, i int) error) error {
	return p.Fork(name, n, body)
}

// joinStream runs one parent joining len(finish) children, child i finishing
// after finish[i] and failing if fail[i], beside a bystander that runs at the
// same instants. It returns every event in dispatch order as "t proc" (stale
// wakeups included), what each process did when it ran, and the engine's
// counters.
func joinStream(join func(*Proc, string, int, func(*Proc, int) error) error, finish []time.Duration, fail []bool) (string, error, Stats) {
	env := NewEnv()
	defer env.Close()
	var b strings.Builder
	var joined error
	body := func(sp *Proc, i int) error {
		fmt.Fprintf(&b, "  child %d starts\n", i)
		sp.Sleep(finish[i])
		fmt.Fprintf(&b, "  child %d ends\n", i)
		if fail[i] {
			return fmt.Errorf("child %d failed", i)
		}
		return nil
	}
	env.Go("parent", func(p *Proc) {
		joined = join(p, "child", len(finish), body)
		fmt.Fprintf(&b, "  parent joined: %v\n", joined)
	})
	env.Go("bystander", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Millisecond)
			fmt.Fprintf(&b, "  bystander %d\n", i)
		}
	})
	for len(env.events) > 0 {
		ev := env.events[0]
		fmt.Fprintf(&b, "%d %s\n", ev.t, ev.p.name)
		env.Step()
	}
	return b.String(), joined, env.Stats()
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for at := 0; at <= len(rest); at++ {
			perm := append(append(append([]int{}, rest[:at]...), n-1), rest[at:]...)
			out = append(out, perm)
		}
	}
	return out
}

// TestForkMatchesCompletionJoin pins Fork to the join it replaces: for every
// order in which 3 or 4 children can finish, with and without same-instant
// finishes, and under every pattern of failures, the dispatch stream, the
// returned error and the engine's counters are those of waiting on one
// Completion per child in index order.
func TestForkMatchesCompletionJoin(t *testing.T) {
	for _, n := range []int{3, 4} {
		for _, perm := range permutations(n) {
			for _, ties := range []bool{false, true} {
				finish := make([]time.Duration, n)
				for rank, child := range perm {
					if ties {
						rank /= 2 // ranks 0,1 and 2,3 finish at the same instant
					}
					finish[child] = time.Duration(rank+1) * time.Millisecond
				}
				for mask := 0; mask < 1<<n; mask++ {
					fail := make([]bool, n)
					var want error
					for i := range fail {
						if fail[i] = mask&(1<<i) != 0; fail[i] && want == nil {
							want = fmt.Errorf("child %d failed", i)
						}
					}
					ref, refErr, refStats := joinStream(completionJoin, finish, fail)
					got, gotErr, gotStats := joinStream(forkJoin, finish, fail)
					name := fmt.Sprintf("n=%d order=%v ties=%v fail=%v", n, perm, ties, fail)
					if fmt.Sprint(refErr) != fmt.Sprint(want) || fmt.Sprint(gotErr) != fmt.Sprint(want) {
						t.Fatalf("%s: Fork returned %v, the Completion join %v; want %v", name, gotErr, refErr, want)
					}
					if got != ref {
						t.Fatalf("%s: dispatch stream differs\nFork:\n%s\nCompletion join:\n%s", name, got, ref)
					}
					if gotStats != refStats {
						t.Fatalf("%s: Stats = %+v, the Completion join's %+v", name, gotStats, refStats)
					}
				}
			}
		}
	}
}

// TestNestedForksShareNoRecord runs two parents that fork at once, one of
// whose children forks again (a stripe-level fork over member-level ones, as
// a RAID write does), twice over so the second round runs on reused records
// and Procs. Children have different latencies and errors: each Fork returns
// its lowest-index error, and no record or child Proc is in two calls at once.
func TestNestedForksShareNoRecord(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	errAt := func(call string, i int) error { return fmt.Errorf("%s[%d]", call, i) }
	procOwner := map[*Proc]string{}
	joinOwner := map[*join]string{}
	seen := map[*Proc]bool{}
	// fork runs call's children: child i sleeps lat[i] ms, then fails if
	// fails[i], or, for i == nestAt, returns the nested call's error.
	var fork func(p *Proc, call string, lat []int, fails []bool, nestAt int) error
	fork = func(p *Proc, call string, lat []int, fails []bool, nestAt int) error {
		err := p.Fork(call, len(lat), func(sp *Proc, i int) error {
			if sp == p {
				t.Errorf("%s[%d] runs on its parent", call, i)
			}
			if o, ok := procOwner[sp]; ok {
				t.Errorf("%s[%d] runs on a Proc %s is still using", call, i, o)
			}
			procOwner[sp], seen[sp] = call, true
			if o, ok := joinOwner[sp.fork]; ok && o != call {
				t.Errorf("%s shares its join record with %s", call, o)
			}
			joinOwner[sp.fork] = call
			defer delete(procOwner, sp)
			sp.Sleep(time.Duration(lat[i]) * time.Millisecond)
			if i == nestAt {
				return fork(sp, call+"/nested", []int{2, 5, 1}, []bool{false, true, true}, -1)
			}
			if fails[i] {
				return errAt(call, i)
			}
			return nil
		})
		for j, o := range joinOwner {
			if o == call {
				delete(joinOwner, j)
			}
		}
		return err
	}
	results := map[string]error{}
	for round := 0; round < 2; round++ {
		env.Go("a", func(p *Proc) {
			results[fmt.Sprint("a", round)] = fork(p, "a", []int{3, 1, 4, 2}, []bool{false, false, true, true}, 1)
		})
		env.Go("b", func(p *Proc) {
			results[fmt.Sprint("b", round)] = fork(p, "b", []int{6, 1, 2}, []bool{true, false, true}, -1)
		})
		env.Run()
	}
	want := map[string]string{"a": "a/nested[1]", "b": "b[0]"}
	for round := 0; round < 2; round++ {
		for call, w := range want {
			if got := results[fmt.Sprint(call, round)]; got == nil || got.Error() != w {
				t.Errorf("round %d: %s's Fork returned %v, want %s", round, call, got, w)
			}
		}
	}
	// A round has 4 + 3 + 3 children in flight at its peak, so 3 records;
	// the second round reuses them and their Procs.
	if len(seen) >= 20 || env.Live() != 0 || len(env.joins) != 3 {
		t.Errorf("%d distinct child Procs over two rounds of 10, %d live, %d free records; want < 20, 0, 3", len(seen), env.Live(), len(env.joins))
	}
	if len(procOwner) != 0 {
		t.Errorf("children still marked running: %v", procOwner)
	}
}

// TestForkChildrenInheritTraceAndName pins what a Fork body sees of its
// caller. Every body sees the caller's trace context: a 1-way Fork runs its
// body on the caller, and the children of a wider one start with the
// caller's context. A child is named Fork's name followed by its index. A
// child Proc that a later Fork reuses starts with that Fork's context, not
// the one its previous body left on it.
func TestForkChildrenInheritTraceAndName(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	kids := map[*Proc]bool{}
	env.Go("parent", func(p *Proc) {
		for round, n := range []int{1, 3, 3} {
			ctx := fmt.Sprint("trace ", round)
			p.SetTraceContext(ctx)
			names := make([]string, n)
			_ = p.Fork("kid", n, func(sp *Proc, i int) error {
				if got := sp.TraceContext(); got != ctx {
					t.Errorf("round %d: child %d of %d sees trace context %v, want %q", round, i, n, got, ctx)
				}
				names[i] = sp.Name()
				if sp != p {
					kids[sp] = true
					sp.SetTraceContext("left behind")
				}
				sp.Sleep(time.Millisecond)
				return nil
			})
			want := "[parent]"
			if n > 1 {
				want = "[kid0 kid1 kid2]"
			}
			if got := fmt.Sprint(names); got != want {
				t.Errorf("round %d: bodies named %s, want %s", round, got, want)
			}
		}
	})
	env.Run()
	if len(kids) != 3 {
		t.Errorf("two 3-way Forks ran on %d distinct child Procs, want 3 (the second reuses the first's)", len(kids))
	}
}
