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
