// Command rosfsd exposes a simulated ROS rack over TCP as network-attached
// storage — the paper's deployment mode (§3.3: "ROS can utilize 10Gbps
// networks to connect clients in a shared network attached server (NAS)
// mode"). It demonstrates inline accessibility: external clients read and
// write the optical archive through a plain request/response protocol with
// no backup/restore ceremony.
//
// Protocol (one request per line, big-endian payloads as noted):
//
//	PUT <path> <nbytes>\n<nbytes of data>   -> OK <virtual-latency>\n
//	GET <path>\n                            -> OK <nbytes> <virtual-latency>\n<data>
//	STAT <path>\n                           -> OK <size> <version>\n
//	LS <path>\n                             -> OK <count>\n<name dir size>...
//	SYNC\n                                  -> OK\n  (seal current bucket)
//	BURN\n                                  -> OK <virtual-duration>\n (flush + burn)
//	STATS\n                                 -> OK <nbytes>\n<unified obs snapshot JSON>
//	METRICS\n                               -> OK <nbytes>\n<Prometheus text exposition>
//	ALERTS\n                                -> OK <nbytes>\n<alert incident log JSON>
//	SERIES [<tail>]\n                       -> OK <nbytes>\n<sampled time-series JSON>
//	TRACE LIST\n                            -> OK <count>\n<one line per trace>
//	TRACE SHOW <id>\n                       -> OK <nbytes>\n<span tree + critical path>
//	TRACE EXPORT [<id>]\n                   -> OK <nbytes>\n<Perfetto trace_event JSON>
//	QUIT\n
//
// METRICS is the scrape endpoint: pointing a Prometheus file_sd/exporter
// bridge at it yields the full fleet (system + per-rack labels) in the
// standard text format.
//
// Usage:
//
//	rosfsd -addr :9876          # serve
//	rosfsd -demo                # serve on an ephemeral port and run a demo client
//	rosfsd -stats-every 100     # also log the obs snapshot every 100 requests
//	rosfsd -sample-every 10s    # telemetry sampling interval (0 disables)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ros"
	"ros/internal/obs"
	"ros/internal/sim"
)

// server serializes simulation access: the DES is single-threaded, so
// requests from concurrent connections run one at a time (the SC is one
// controller; this also matches its request handling).
type server struct {
	mu         sync.Mutex
	sys        *ros.System
	statsEvery int
	requests   int
}

func (s *server) do(fn func(p *sim.Proc) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.sys.Do(fn)
	s.requests++
	if s.statsEvery > 0 && s.requests%s.statsEvery == 0 {
		fmt.Printf("stats after %d requests:\n%s", s.requests, s.sys.Stats().Obs)
	}
	return err
}

// snapshotJSON serializes the unified obs snapshot, every rack merged, under
// the sim lock.
func (s *server) snapshotJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Stats().Obs.JSON()
}

// metricsText renders the Prometheus exposition under the sim lock.
func (s *server) metricsText() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.PrometheusText(), nil
}

// alertsJSON serializes the alert incident log under the sim lock.
func (s *server) alertsJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys.Alerts == nil {
		return nil, fmt.Errorf("alerting disabled (-sample-every 0)")
	}
	return s.sys.Alerts.IncidentsJSON()
}

// seriesJSON serializes the sampled time series under the sim lock.
func (s *server) seriesJSON(tail int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys.Telemetry == nil {
		return nil, fmt.Errorf("telemetry disabled (-sample-every 0)")
	}
	return s.sys.Telemetry.DumpJSON(tail)
}

// traceRequest serves the TRACE verb (LIST, SHOW <id>, EXPORT [<id>]) under
// the sim lock.
func (s *server) traceRequest(args []string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.sys.FS.Tracer()
	if tr == nil {
		return "", fmt.Errorf("tracing disabled")
	}
	switch strings.ToUpper(args[0]) {
	case "LIST":
		var b strings.Builder
		for _, t := range tr.Traces() {
			fmt.Fprintf(&b, "%d %s %s %v %v %d %d\n",
				t.ID, t.Name, t.Class, t.Start, t.Duration(), len(t.Spans()), t.Retries)
		}
		return b.String(), nil
	case "SHOW":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: TRACE SHOW <id>")
		}
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return "", fmt.Errorf("bad trace id %q", args[1])
		}
		t := tr.Trace(id)
		if t == nil {
			return "", fmt.Errorf("no captured trace %d", id)
		}
		return t.Format(), nil
	case "EXPORT":
		traces := tr.Traces()
		if len(args) == 2 {
			id, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil {
				return "", fmt.Errorf("bad trace id %q", args[1])
			}
			t := tr.Trace(id)
			if t == nil {
				return "", fmt.Errorf("no captured trace %d", id)
			}
			traces = []*obs.Trace{t}
		}
		js, err := obs.PerfettoJSON(traces)
		if err != nil {
			return "", err
		}
		return string(js) + "\n", nil
	}
	return "", fmt.Errorf("unknown TRACE subcommand %q", args[0])
}

func main() {
	addr := flag.String("addr", ":9876", "listen address")
	demo := flag.Bool("demo", false, "serve on an ephemeral port and run a demo client")
	statsEvery := flag.Int("stats-every", 0, "log the unified obs snapshot every N requests (0 = off)")
	sampleEvery := flag.Duration("sample-every", 30*time.Second,
		"telemetry sampling interval in virtual time (0 disables METRICS/ALERTS/SERIES)")
	flag.Parse()

	sys, err := ros.New(ros.Options{BucketBytes: 4 << 20, SampleEvery: *sampleEvery})
	if err != nil {
		fmt.Fprintln(os.Stderr, "assemble:", err)
		os.Exit(1)
	}
	srv := &server{sys: sys, statsEvery: *statsEvery}

	listenAddr := *addr
	if *demo {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Println("rosfsd serving on", ln.Addr())

	if *demo {
		go acceptLoop(srv, ln)
		if err := runDemo(ln.Addr().String()); err != nil {
			fmt.Fprintln(os.Stderr, "demo failed:", err)
			os.Exit(1)
		}
		fmt.Println("demo complete")
		return
	}
	acceptLoop(srv, ln)
}

func acceptLoop(srv *server, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(srv, conn)
	}
}

func handle(srv *server, conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for {
		w.Flush()
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "QUIT":
			return
		case "PUT":
			if len(fields) != 3 {
				fmt.Fprintf(w, "ERR usage: PUT <path> <nbytes>\n")
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				fmt.Fprintf(w, "ERR bad length\n")
				continue
			}
			data := make([]byte, n)
			if _, err := io.ReadFull(r, data); err != nil {
				return
			}
			var lat string
			err = srv.do(func(p *sim.Proc) error {
				start := p.Now()
				if err := srv.sys.FS.WriteFile(p, fields[1], data); err != nil {
					return err
				}
				lat = (p.Now() - start).String()
				return nil
			})
			reply(w, err, func() { fmt.Fprintf(w, "OK %s\n", lat) })
		case "GET":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR usage: GET <path>\n")
				continue
			}
			var data []byte
			var lat string
			err := srv.do(func(p *sim.Proc) error {
				start := p.Now()
				var err error
				data, err = srv.sys.FS.ReadFile(p, fields[1])
				lat = (p.Now() - start).String()
				return err
			})
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d %s\n", len(data), lat)
				w.Write(data)
			})
		case "STAT":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR usage: STAT <path>\n")
				continue
			}
			var size int64
			var version int
			err := srv.do(func(p *sim.Proc) error {
				fi, err := srv.sys.FS.Stat(p, fields[1])
				if err != nil {
					return err
				}
				size, version = fi.Size, fi.Version
				return nil
			})
			reply(w, err, func() { fmt.Fprintf(w, "OK %d %d\n", size, version) })
		case "LS":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR usage: LS <path>\n")
				continue
			}
			var out []string
			err := srv.do(func(p *sim.Proc) error {
				des, err := srv.sys.FS.ReadDir(p, fields[1])
				if err != nil {
					return err
				}
				for _, de := range des {
					kind := "f"
					if de.IsDir {
						kind = "d"
					}
					out = append(out, fmt.Sprintf("%s %s %d", de.Name, kind, de.Size))
				}
				return nil
			})
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d\n", len(out))
				for _, l := range out {
					fmt.Fprintln(w, l)
				}
			})
		case "SYNC":
			err := srv.do(func(p *sim.Proc) error { return srv.sys.FS.Sync(p) })
			reply(w, err, func() { fmt.Fprintln(w, "OK") })
		case "BURN":
			var dur string
			err := srv.do(func(p *sim.Proc) error {
				start := p.Now()
				c, err := srv.sys.FS.FlushAndBurn(p)
				if err != nil {
					return err
				}
				if _, err := c.Wait(p); err != nil {
					return err
				}
				dur = (p.Now() - start).String()
				return nil
			})
			reply(w, err, func() { fmt.Fprintf(w, "OK %s\n", dur) })
		case "STATS":
			js, err := srv.snapshotJSON()
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d\n", len(js))
				w.Write(js)
				fmt.Fprintln(w)
			})
		case "METRICS":
			text, err := srv.metricsText()
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d\n", len(text))
				w.WriteString(text)
			})
		case "ALERTS":
			js, err := srv.alertsJSON()
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d\n", len(js))
				w.Write(js)
				fmt.Fprintln(w)
			})
		case "SERIES":
			tail := 0
			if len(fields) > 1 {
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 {
					fmt.Fprintf(w, "ERR bad tail %q\n", fields[1])
					continue
				}
				tail = n
			}
			js, err := srv.seriesJSON(tail)
			reply(w, err, func() {
				fmt.Fprintf(w, "OK %d\n", len(js))
				w.Write(js)
				fmt.Fprintln(w)
			})
		case "TRACE":
			if len(fields) < 2 {
				fmt.Fprintf(w, "ERR usage: TRACE LIST | TRACE SHOW <id> | TRACE EXPORT [<id>]\n")
				continue
			}
			out, err := srv.traceRequest(fields[1:])
			reply(w, err, func() {
				if strings.ToUpper(fields[1]) == "LIST" {
					lines := strings.Count(out, "\n")
					fmt.Fprintf(w, "OK %d\n", lines)
					w.WriteString(out)
				} else {
					fmt.Fprintf(w, "OK %d\n", len(out))
					w.WriteString(out)
				}
			})
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
	}
}

func reply(w *bufio.Writer, err error, ok func()) {
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	ok()
}

// runDemo exercises the protocol as a client would.
func runDemo(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	fmt.Fprintf(w, "PUT /demo/report.bin %d\n", len(payload))
	w.Write(payload)
	w.Flush()
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "OK") {
		return fmt.Errorf("PUT reply %q err %v", line, err)
	}
	fmt.Print("client: PUT -> ", line)

	fmt.Fprintf(w, "STAT /demo/report.bin\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	fmt.Print("client: STAT -> ", line)

	fmt.Fprintf(w, "GET /demo/report.bin\n")
	w.Flush()
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "OK") {
		return fmt.Errorf("GET reply %q err %v", line, err)
	}
	fmt.Print("client: GET -> ", line)
	var n int
	var lat string
	if _, err := fmt.Sscanf(line, "OK %d %s", &n, &lat); err != nil {
		return err
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(r, got); err != nil {
		return err
	}
	for i := range got {
		if got[i] != payload[i] {
			return fmt.Errorf("payload mismatch at byte %d", i)
		}
	}
	fmt.Println("client: payload verified,", n, "bytes")

	fmt.Fprintf(w, "BURN\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	fmt.Print("client: BURN -> ", line)

	fmt.Fprintf(w, "GET /demo/report.bin\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	fmt.Print("client: GET (post-burn) -> ", line)
	if _, err := fmt.Sscanf(line, "OK %d %s", &n, &lat); err != nil {
		return err
	}
	if _, err := io.ReadFull(r, make([]byte, n)); err != nil {
		return err
	}
	fmt.Fprintf(w, "STATS\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	var sn int
	if _, err := fmt.Sscanf(line, "OK %d", &sn); err != nil {
		return fmt.Errorf("STATS reply %q: %w", line, err)
	}
	snap := make([]byte, sn+1) // snapshot JSON plus trailing newline
	if _, err := io.ReadFull(r, snap); err != nil {
		return err
	}
	fmt.Println("client: STATS ->", sn, "bytes of snapshot JSON")

	fmt.Fprintf(w, "METRICS\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	var mn int
	if _, err := fmt.Sscanf(line, "OK %d", &mn); err != nil {
		return fmt.Errorf("METRICS reply %q: %w", line, err)
	}
	metrics := make([]byte, mn)
	if _, err := io.ReadFull(r, metrics); err != nil {
		return err
	}
	if !strings.Contains(string(metrics), "# TYPE ros_olfs_files_written counter") {
		return fmt.Errorf("METRICS exposition missing expected family")
	}
	fmt.Println("client: METRICS ->", mn, "bytes of Prometheus exposition")

	fmt.Fprintf(w, "TRACE LIST\n")
	w.Flush()
	line, _ = r.ReadString('\n')
	var tn int
	if _, err := fmt.Sscanf(line, "OK %d", &tn); err != nil {
		return fmt.Errorf("TRACE LIST reply %q: %w", line, err)
	}
	for i := 0; i < tn; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			return err
		}
	}
	fmt.Println("client: TRACE LIST ->", tn, "captured traces")

	fmt.Fprintf(w, "QUIT\n")
	w.Flush()
	return nil
}
