package main

import (
	"reflect"
	"testing"
)

// TestSymbolMatching checks which linked symbols reach which declarations.
func TestSymbolMatching(t *testing.T) {
	for _, c := range []struct {
		name    string
		decl    string
		syms    []string
		reached bool
	}{
		{
			name:    "plain method",
			decl:    "ros/internal/sim.(*Env).Run",
			syms:    []string{"ros/internal/sim.(*Env).Run"},
			reached: true,
		},
		{
			// A shape holds spaces and nested brackets. Cutting the symbol
			// at its first [ leaves "ros/internal/sim.(*Completion", which
			// reaches nothing.
			name:    "generic method, nested shape",
			decl:    "ros/internal/sim.(*Completion).Wait",
			syms:    []string{"ros/internal/sim.(*Completion[go.shape.struct { Group int; Hit []bool; Ix map[string][2]int }]).Wait"},
			reached: true,
		},
		{
			name:    "generic function",
			decl:    "ros/internal/chunk.clip",
			syms:    []string{"ros/internal/chunk.clip[go.shape.int64]"},
			reached: true,
		},
		{
			name:    "value method seen only as its pointer wrapper",
			decl:    "ros/internal/plc.Command.Encode",
			syms:    []string{"ros/internal/plc.(*Command).Encode"},
			reached: true,
		},
		{
			name:    "generic value method seen only as its pointer wrapper",
			decl:    "ros/internal/sim.Queue.Len",
			syms:    []string{"ros/internal/sim.(*Queue[go.shape.[]uint8]).Len"},
			reached: true,
		},
		{
			// A value method's wrapper reaches it; a pointer method is not
			// reached by a value symbol.
			name:    "pointer method, value symbol",
			decl:    "ros/internal/plc.(*Command).Encode",
			syms:    []string{"ros/internal/plc.Command.Encode"},
			reached: false,
		},
		{
			name:    "method value wrapper",
			decl:    "ros/internal/olfs.(*FS).flush",
			syms:    []string{"ros/internal/olfs.(*FS).flush-fm"},
			reached: true,
		},
		{
			// A closure is not a declaration: it reaches nothing by its own
			// name, not even the function it sits in.
			name:    "closure",
			decl:    "ros/internal/sim.(*Env).Run",
			syms:    []string{"ros/internal/sim.(*Env).Run.func1", "ros/internal/sim.(*Env).Run.func1.2"},
			reached: false,
		},
		{
			name:    "closure of a generic function",
			decl:    "ros/internal/chunk.clip",
			syms:    []string{"ros/internal/chunk.clip[go.shape.int64].func1"},
			reached: false,
		},
		{
			name:    "other package, same name",
			decl:    "ros/internal/udf.(*Volume).Stat",
			syms:    []string{"ros/internal/olfs.(*Volume).Stat", "ros/internal/udf.(*Volume).Stats"},
			reached: false,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := len(unreachedOf([]decl{{name: c.decl}}, c.syms)) == 0
			if got != c.reached {
				t.Errorf("%q reaches %s = %v, want %v", c.syms, c.decl, got, c.reached)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	unreached := []decl{
		{name: "ros/internal/a.F", pos: "internal/a/a.go:1", lines: 3},
		{name: "ros/internal/a.G"},
		{name: "ros/internal/a.H"},
		{name: "ros/internal/a.J"},
	}
	listed := map[string]string{
		"ros/internal/a.G": "hook: internal/b",
		"ros/internal/a.H": "because",
		"ros/internal/a.J": "planned: soon",
		"ros/internal/a.K": "planned: item 6",
	}
	want := []string{
		`ros/internal/a.F (internal/a/a.go:1, 3 lines) is linked by no binary: give it a caller, delete it, move it into an export_test.go, or list it with a reason`,
		`ros/internal/a.H: reason "because" is not "planned: item N", "hook: <packages>" or "decision: item N"`,
		`ros/internal/a.J: reason "planned: soon" is not "planned: item N", "hook: <packages>" or "decision: item N"`,
		`ros/internal/a.K is listed but is now reached or no longer declared: remove its line`,
	}
	if got := compare(unreached, listed); !reflect.DeepEqual(got, want) {
		t.Errorf("compare:\n got %q\nwant %q", got, want)
	}
	if got := compare(unreached[1:2], map[string]string{"ros/internal/a.G": "decision: item 17"}); len(got) != 0 {
		t.Errorf("an exact list reports %q", got)
	}
}
