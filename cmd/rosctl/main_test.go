package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ros"
	"ros/internal/image"
	"ros/internal/power"
)

// newConsole builds the console's System for a test and closes it after.
func newConsole(t *testing.T, racks, replicas int) *ros.System {
	t.Helper()
	sys, err := newSystem(racks, replicas, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// exec runs one console line and returns what it printed.
func exec(t *testing.T, sys *ros.System, line string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(sys, &out, strings.Fields(line), nil)
	return out.String(), err
}

// spread writes /a and /b on three racks with two replicas each, and checks
// that rack 0 lacks /b, so a verb that asks only rack 0 gets /b wrong.
func spread(t *testing.T) *ros.System {
	t.Helper()
	sys := newConsole(t, 3, 2)
	for _, line := range []string{"write /a 2MB", "write /b 2MB"} {
		if _, err := exec(t, sys, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	if set := sys.Cluster.ReplicasOf("/b"); slices.Contains(set, 0) {
		t.Fatalf("/b placed on racks %v; the test needs it off rack0", set)
	}
	return sys
}

func TestLsListsTheFederation(t *testing.T) {
	sys := spread(t)
	out, err := exec(t, sys, "ls /")
	if err != nil {
		t.Fatal(err)
	}
	want := "  file    2097152  a\n  file    2097152  b\n"
	if out != want {
		t.Errorf("ls / printed\n%s\nwant\n%s", out, want)
	}
}

func TestStatFindsAFileOffRack0(t *testing.T) {
	sys := spread(t)
	out, err := exec(t, sys, "stat /b")
	if err != nil {
		t.Fatal(err)
	}
	if want := "  v1: 2097152 bytes, 1 part(s), first at buffer\n"; out != want {
		t.Errorf("stat /b printed %q, want %q", out, want)
	}
}

func TestRmUnlinksEveryReplica(t *testing.T) {
	sys := spread(t)
	if _, err := exec(t, sys, "rm /a"); err != nil {
		t.Fatal(err)
	}
	if out, err := exec(t, sys, "read /a"); err == nil {
		t.Errorf("read /a after rm printed %q", out)
	}
	if out, _ := exec(t, sys, "ls /"); strings.Contains(out, " a\n") {
		t.Errorf("ls / after rm /a still lists it:\n%s", out)
	}
}

func TestIngestIsGone(t *testing.T) {
	sys := newConsole(t, 1, 0)
	if _, err := exec(t, sys, "ingest /x 1MB"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("ingest: %v, want an unknown command", err)
	}
}

// rack1Only runs spread, burns every rack, then burns 16 MB more on rack 1
// alone and returns a tray that only rack 1's catalog marks Used.
func rack1Only(t *testing.T) (*ros.System, string) {
	t.Helper()
	sys := spread(t)
	if _, err := exec(t, sys, "burn"); err != nil {
		t.Fatal(err)
	}
	racks := sys.Cluster.Racks()
	err := sys.Do(func(p *ros.Proc) error {
		if err := racks[1].FS.WriteFile(p, "/rack1/only", make([]byte, 16<<20)); err != nil {
			return err
		}
		c, err := racks[1].FS.FlushAndBurn(p)
		if err != nil {
			return err
		}
		_, err = c.Wait(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range racks[1].FS.Cat.Trays(image.DAUsed) {
		if racks[0].FS.Cat.DAState(id) != image.DAUsed && racks[2].FS.Cat.DAState(id) != image.DAUsed {
			return sys, id.String()
		}
	}
	t.Fatal("no tray is Used on rack1 alone")
	return nil, ""
}

func TestTraysListsEveryRackInFillOrder(t *testing.T) {
	sys, _ := rack1Only(t)
	out, err := exec(t, sys, "trays")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, r := range sys.Cluster.Racks() {
		used := r.FS.Cat.Trays(image.DAUsed)
		for _, id := range used {
			fmt.Fprintf(&want, "  %s used   %v\n", r.Name, id)
		}
		fmt.Fprintf(&want, "  %s: %d used, 0 failed, %d images on disc\n", r.Name, len(used), len(r.FS.Cat.DIL))
	}
	if out != want.String() {
		t.Errorf("trays printed\n%s\nwant\n%s", out, want.String())
	}
	if again, _ := exec(t, sys, "trays"); again != out {
		t.Errorf("a second trays printed\n%s\nafter\n%s", again, out)
	}
}

func TestTrayVerbsReachRack1(t *testing.T) {
	sys, tray := rack1Only(t)
	for verb, want := range map[string]string{
		"scrub " + tray:  "  rack1 scrubbed " + tray + ":",
		"repair " + tray: "  rack1 repaired " + tray + ":",
	} {
		out, err := exec(t, sys, verb)
		if err != nil {
			t.Errorf("%s: %v", verb, err)
		} else if !strings.HasPrefix(out, want) || strings.Count(out, "\n") != 1 {
			t.Errorf("%s printed %q, want one line starting %q", verb, out, want)
		}
	}
	out, err := exec(t, sys, "snapshot")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.Cluster.Racks() {
		if !strings.Contains(out, "  "+r.Name+": MV snapshot ") {
			t.Errorf("snapshot printed\n%s\nwith no line for %s", out, r.Name)
		}
	}
	// A tray no rack holds is refused, as is a name that parses but lies
	// outside every library (a third roller, layer 85, slot 6).
	for _, line := range []string{"scrub r1/L01/S1", "scrub r2/L85/S6", "repair r2/L85/S6", "scrub r0/L85/S0"} {
		if _, err := exec(t, sys, line); err == nil || !strings.Contains(err.Error(), "no rack holds") {
			t.Errorf("%s: err = %v, want a refusal saying no rack holds the tray", line, err)
		}
	}
}

func TestPowerSumsEveryRack(t *testing.T) {
	sys := newConsole(t, 3, 0)
	out, err := exec(t, sys, "power")
	if err != nil {
		t.Fatal(err)
	}
	cfg := power.PrototypeConfig()
	want := fmt.Sprintf("  modeled draw: %.0f W (idle %.0f W, peak %.0f W)\n", 3*cfg.Idle(), 3*cfg.Idle(), 3*cfg.Peak())
	if out != want {
		t.Errorf("power at rest on 3 racks printed %q, want %q", out, want)
	}
}

// client speaks the serve protocol over one connection.
type client struct {
	conn net.Conn
	in   *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, in: bufio.NewReader(conn)}
}

// do sends one command line, and payload after it, and returns the reply's
// body or its ERR message as an error.
func (c *client) do(line string, payload []byte) ([]byte, error) {
	if _, err := c.conn.Write(append([]byte(line+"\n"), payload...)); err != nil {
		return nil, err
	}
	head, err := c.in.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if msg, ok := strings.CutPrefix(head, "ERR "); ok {
		return nil, fmt.Errorf("ERR %s", strings.TrimSuffix(msg, "\n"))
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(head, "OK "), "\n"))
	if err != nil {
		return nil, fmt.Errorf("bad reply header %q", head)
	}
	body := make([]byte, n)
	_, err = io.ReadFull(c.in, body)
	return body, err
}

// roundTrip puts a file, gets it back, burns every rack and gets it again.
func (c *client) roundTrip(path string, seed byte) error {
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i*13) + seed
	}
	if _, err := c.do(fmt.Sprintf("put %s %d", path, len(data)), data); err != nil {
		return fmt.Errorf("put: %w", err)
	}
	for _, step := range []string{"get", "burn", "get"} {
		line := step
		if step == "get" {
			line += " " + path
		}
		got, err := c.do(line, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", line, err)
		}
		if step == "get" && !bytes.Equal(got, data) {
			return fmt.Errorf("%s returned %d bytes that differ from the %d put", line, len(got), len(data))
		}
	}
	return nil
}

func TestServe(t *testing.T) {
	sys := newConsole(t, 1, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { serve(sys, ln); close(done) }()
	clients := []*client{dial(t, ln.Addr().String()), dial(t, ln.Addr().String())}
	// serve returns once the listener and both connections are closed, so
	// no command runs after the test closes the System.
	defer func() {
		for _, c := range clients {
			c.conn.Close()
		}
		ln.Close()
		<-done
	}()
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.roundTrip(fmt.Sprintf("/client%d/report.bin", i), byte(i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	c := clients[0]
	if m, err := c.do("metrics", nil); err != nil || !bytes.Contains(m, []byte("# TYPE ros_olfs_files_written counter")) {
		t.Errorf("metrics: %v; exposition lacks the olfs files-written family", err)
	}
	if tl, err := c.do("trace list", nil); err != nil || len(tl) == 0 || bytes.Contains(tl, []byte("no captured traces")) {
		t.Errorf("trace list = %q, %v; want captured traces", tl, err)
	}
	js, err := c.do("stats --json", nil)
	var snap map[string]any
	if err != nil || json.Unmarshal(js, &snap) != nil {
		t.Errorf("stats --json: %v; reply does not parse as JSON: %.80q", err, js)
	}
	if _, err := c.do("frobnicate /x", nil); err == nil || !strings.HasPrefix(err.Error(), "ERR ") {
		t.Errorf("unknown verb: %v, want an ERR reply", err)
	}
	if _, err := c.do(fmt.Sprintf("put /huge %d", maxPut+1), nil); err == nil {
		t.Error("a put over maxPut was accepted")
	}
	if _, err := c.do("put /short 8", []byte("12345678")); err != nil {
		t.Errorf("put after an ERR reply: %v", err)
	}
}
