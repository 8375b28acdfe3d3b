// Command rosctl is the maintenance interface (the paper's MI module): an
// interactive shell over a simulated ROS rack. It assembles a System and
// executes commands against it, advancing virtual time as operations run.
//
// Usage:
//
//	rosctl                      # interactive shell on a demo-sized rack
//	echo "write /a 1MB
//	sync
//	burn
//	read /a
//	status" | rosctl
//
// Commands:
//
//	write <path> <size>     write a file of synthetic data (size like 4KB, 2MB)
//	                        through the federation namespace
//	read <path>             read a file from its cheapest replica, report latency
//	stat <path>             show index metadata (size, version, parts)
//	ls <path>               list a directory
//	rm <path>               unlink a namespace entry
//	sync                    seal every rack's current bucket
//	burn                    seal + burn every rack's sealed images, wait for all
//	scrub <tray>            verify cross-disc parity of a burned tray (r0/L84/S0)
//	trays                   show used/failed trays
//	status                  system counters, then one row per rack: health,
//	                        buffer, scheduler queues, admission, drive states
//	stats [--json] [--rack <i>]
//	                        unified obs snapshot (counters, gauges, latency
//	                        histograms with p50/p95/p99) merged over every
//	                        rack (histogram buckets summed, quantiles
//	                        re-derived); --rack <i> drills into one rack;
//	                        --json for machines
//	metrics                 Prometheus text exposition (system + per-rack
//	                        rack="rackN" labels)
//	alerts [--json]         loaded rules, active alert states, incident log
//	                        with detection/recovery latencies
//	top [filter]            one-frame fleet dashboard: firing alerts plus
//	                        sampled series with sparklines (filter = substring)
//	watch [frames] [filter] live dashboard: redraw every sampling interval of
//	                        virtual time while daemons run
//	trace list              captured request traces (tail-sampled journal)
//	trace show <id>         one trace as a span tree + critical-path breakdown
//	trace export --perfetto [<id>]
//	                        Chrome/Perfetto trace_event JSON (ui.perfetto.dev)
//	faults list             armed fault rules, fire counts, injection schedule
//	faults arm <spec>       arm fault rules (optical.read:p=0.05;media.lse:once)
//	faults clear            disarm all fault rules (schedule is kept)
//	power                   current modeled power draw
//	clock                   virtual time
//	help / quit
//
// The system is a federation of -racks racks (default 1): write/read route
// through its namespace (replicated placement, replica-aware reads), the
// other file commands act on rack 0, and the cluster command group manages
// the federation:
//
//	cluster status [--json]   health, loads and backlog per rack
//	cluster placement [<path>] per-rack placement loads, or one
//	                          file's replica set
//	cluster kill <i>          mark rack i offline (triggers re-replication)
//	cluster revive <i>        mark rack i up again
//	cluster addrack           grow the federation by one rack (no relocation)
//
// A single command can also be given as arguments for scripting:
//
//	rosctl -racks 3 -replicas 2 cluster status
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ros"
	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/power"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
)

func main() {
	racks := flag.Int("racks", 1, "federate this many racks")
	replicas := flag.Int("replicas", 0, "replicas per file (default min(2, racks))")
	sampleEvery := flag.Duration("sample-every", 30*time.Second,
		"telemetry sampling interval in virtual time (0 disables metrics/alerts/top)")
	flag.Parse()

	// RecycleAfterBurn keeps burned buckets out of the read cache so a read
	// after `burn` exercises the full mechanical chain — the interesting case
	// for `trace show`.
	sys, err := ros.New(ros.Options{
		BucketBytes:     4 << 20,
		DisableAutoBurn: true,
		FS:              ros.FSConfig{RecycleAfterBurn: true},
		Racks:           *racks,
		Replicas:        *replicas,
		SampleEvery:     *sampleEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "assemble:", err)
		os.Exit(1)
	}
	if args := flag.Args(); len(args) > 0 {
		// Single-command mode: run the argv command and exit.
		runCommand(sys, args)
		return
	}
	fmt.Printf("ROS maintenance interface — %d-rack federation, %d replica(s). 'help' for commands.\n",
		len(sys.Cluster.Racks()), sys.Cluster.Replicas())
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("ros> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "quit" || fields[0] == "exit" {
			return
		}
		runCommand(sys, fields)
	}
}

// runCommand executes one command as a simulation process.
func runCommand(sys *ros.System, fields []string) {
	err := sys.Do(func(p *sim.Proc) error {
		return dispatch(sys, p, fields)
	})
	if err != nil {
		fmt.Println("error:", err)
	}
}

func dispatch(sys *ros.System, p *sim.Proc, fields []string) error {
	fs := sys.FS
	switch fields[0] {
	case "help":
		fmt.Println("write read stat ls rm sync burn ingest drain scrub repair snapshot trays status stats metrics alerts top watch trace faults power clock quit")
		fmt.Println("cluster status|placement|kill|revive|addrack")
	case "cluster":
		return clusterCommand(sys, p, fields[1:])
	case "ingest":
		// Direct-writing mode (§4.8): wire-speed staging, async delivery.
		if len(fields) != 3 {
			return fmt.Errorf("usage: ingest <path> <size>")
		}
		n, err := parseSize(fields[2])
		if err != nil {
			return err
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*11 + 3)
		}
		start := p.Now()
		if err := fs.DirectIngest(p, fields[1], data); err != nil {
			return err
		}
		fmt.Printf("staged %s (%d bytes) in %v; delivery continues in background\n",
			fields[1], n, p.Now()-start)
	case "drain":
		start := p.Now()
		if err := fs.DirectDrain(p); err != nil {
			return err
		}
		fmt.Printf("staging drained in %v\n", p.Now()-start)
	case "repair":
		if len(fields) != 2 {
			return fmt.Errorf("usage: repair r<r>/L<l>/S<s>")
		}
		id, err := rack.ParseTrayID(fields[1])
		if err != nil {
			return err
		}
		rep, err := fs.ScrubAndRepair(p, id)
		if err != nil {
			return err
		}
		fmt.Printf("scrub: %d bad strips; bad discs %v; %d image(s) recovered, %d migrated\n",
			len(rep.Scrub.BadStrips), rep.BadDiscs, len(rep.Recovered), len(rep.Migrated))
		if rep.ReBurn != nil {
			if _, err := rep.ReBurn.Wait(p); err != nil {
				return fmt.Errorf("re-burn: %w", err)
			}
			fmt.Println("recovered images re-burned to a fresh array")
		}
	case "snapshot":
		seq, err := fs.BurnMVSnapshot(p)
		if err != nil {
			return err
		}
		fmt.Printf("MV snapshot %d written into the namespace (burns with the next array)\n", seq)
	case "clock":
		fmt.Println("virtual time:", p.Now())
	case "write":
		if len(fields) != 3 {
			return fmt.Errorf("usage: write <path> <size>")
		}
		n, err := parseSize(fields[2])
		if err != nil {
			return err
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		start := p.Now()
		if err := sys.Cluster.WriteFile(p, fields[1], data); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes) to racks %v in %v\n",
			fields[1], n, sys.Cluster.ReplicasOf(fields[1]), p.Now()-start)
	case "read":
		if len(fields) != 2 {
			return fmt.Errorf("usage: read <path>")
		}
		start := p.Now()
		data, err := sys.Cluster.ReadFile(p, fields[1])
		if err != nil {
			return err
		}
		fmt.Printf("read %d bytes in %v\n", len(data), p.Now()-start)
	case "stat":
		if len(fields) != 2 {
			return fmt.Errorf("usage: stat <path>")
		}
		ix, err := fs.MV.Stat(p, fields[1])
		if err != nil {
			return err
		}
		if ix.Dir {
			fmt.Println(ix.Path, "(directory)")
			return nil
		}
		for _, e := range ix.Entries {
			loc := "buffer"
			if len(e.Parts) > 0 {
				if addr, ok := fs.Cat.Locate(e.Parts[0]); ok {
					loc = addr.String()
				}
			}
			fmt.Printf("  v%d: %d bytes, %d part(s), first at %s\n", e.Version, e.Size, len(e.Parts), loc)
		}
	case "ls":
		path := "/"
		if len(fields) > 1 {
			path = fields[1]
		}
		des, err := fs.ReadDir(p, path)
		if err != nil {
			return err
		}
		for _, de := range des {
			kind := "file"
			if de.IsDir {
				kind = "dir "
			}
			fmt.Printf("  %s %10d  %s\n", kind, de.Size, de.Name)
		}
	case "rm":
		if len(fields) != 2 {
			return fmt.Errorf("usage: rm <path>")
		}
		return fs.Unlink(p, fields[1])
	case "sync":
		for _, r := range sys.Cluster.Racks() {
			if err := r.FS.Sync(p); err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
		}
	case "burn":
		// Start every rack's burn before waiting on any, so the racks burn
		// side by side.
		start := p.Now()
		var waits []*sim.Completion[error]
		for _, r := range sys.Cluster.Racks() {
			c, err := r.FS.FlushAndBurn(p)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
			waits = append(waits, c)
		}
		for i, c := range waits {
			if _, err := c.Wait(p); err != nil {
				return fmt.Errorf("%s: %w", sys.Cluster.Racks()[i].Name, err)
			}
		}
		fmt.Printf("burned in %v (virtual)\n", p.Now()-start)
	case "scrub":
		if len(fields) != 2 {
			return fmt.Errorf("usage: scrub r<r>/L<l>/S<s>")
		}
		id, err := rack.ParseTrayID(fields[1])
		if err != nil {
			return err
		}
		rep, err := fs.ScrubTray(p, id)
		if err != nil {
			return err
		}
		fmt.Printf("scrubbed %v: %d bytes/disc checked, %d bad strips\n",
			rep.Tray, rep.Checked, len(rep.BadStrips))
	case "trays":
		used, failed := 0, 0
		for k, st := range fs.Cat.DA {
			switch st {
			case image.DAUsed:
				used++
				fmt.Println("  used  ", k)
			case image.DAFailed:
				failed++
				fmt.Println("  failed", k)
			}
		}
		fmt.Printf("  %d used, %d failed, %d images on disc\n", used, failed, len(fs.Cat.DIL))
	case "status":
		// The summary lines count the whole system; the table has one row
		// per rack.
		st := sys.Stats()
		c := st.Obs.Counter
		fmt.Printf("  files: %d written, %d read; bytes: %d written, %d read\n",
			c("olfs.files_written"), c("olfs.files_read"), c("olfs.bytes_written"), c("olfs.bytes_read"))
		fmt.Printf("  burns: %d tasks; fetches: %d; cache: %d hits / %d misses\n",
			c("olfs.burn_tasks"), c("olfs.fetch_tasks"), c("olfs.cache_hits"), c("olfs.cache_misses"))
		fmt.Printf("  mechanics: %d loads, %d unloads; discs resident: %d\n",
			c("rack.loads"), c("rack.unloads"), st.TotalDiscs)
		fmt.Printf("  scheduler: %s (sched queue: interactive/prefetch/burn/scrub)\n",
			fs.Sched().Config().Policy)
		fmt.Printf("  %-6s %-8s %-10s %-12s %-6s %-26s %-6s %-5s %-10s %s\n", "rack", "health",
			"free slots", "sched queue", "burns", "admission inflight", "queued", "shed", "peak", "drive groups")
		for _, r := range sys.Cluster.Racks() {
			d := r.FS.Sched().Depths()
			adm := r.FS.WritePath().Admission()
			cap := adm.Config().CapacityBytes
			inflight := fmt.Sprintf("%d/%d (%d%%)", adm.InflightBytes(), cap, adm.InflightBytes()*100/max64(cap, 1))
			if adm.Congested() {
				inflight += " CONGESTED"
			}
			groups := make([]string, 0, len(r.Lib.Groups))
			for _, g := range r.Lib.Groups {
				src := "empty"
				if g.Source != nil {
					src = g.Source.String()
				}
				states := make([]byte, 0, len(g.Drives))
				for _, dr := range g.Drives {
					states = append(states, dr.State().String()[0])
				}
				groups = append(groups, "["+src+"]"+string(states))
			}
			fmt.Printf("  %-6s %-8s %-10s %-12s %-6d %-26s %-6d %-5d %-10d %s\n", r.Name, r.Health(),
				fmt.Sprintf("%d/%d", r.FS.Buckets.FreeSlots(), len(r.FS.Buckets.Slots())),
				fmt.Sprintf("%d/%d/%d/%d", d[sched.Interactive], d[sched.Prefetch], d[sched.Burn], d[sched.Scrub]),
				r.Reg.Counter("olfs.burn_tasks").Value(), inflight,
				adm.QueueLen(), adm.Sheds(), adm.MaxInflightBytes(), strings.Join(groups, " "))
		}
	case "stats":
		asJSON := false
		snap := sys.MergedObs()
		for i := 1; i < len(fields); i++ {
			switch fields[i] {
			case "--json":
				asJSON = true
			case "--rack":
				if i+1 >= len(fields) {
					return fmt.Errorf("usage: stats [--json] [--rack <i>]")
				}
				i++
				ri, err := strconv.Atoi(fields[i])
				if err != nil {
					return fmt.Errorf("bad rack index %q", fields[i])
				}
				snap = sys.RackObs(ri)
			default:
				return fmt.Errorf("usage: stats [--json] [--rack <i>]")
			}
		}
		if asJSON {
			js, err := snap.JSON()
			if err != nil {
				return err
			}
			fmt.Println(string(js))
			return nil
		}
		fmt.Print(snap)
	case "metrics":
		fmt.Print(sys.PrometheusText())
	case "alerts":
		return alertsCommand(sys, fields[1:])
	case "top":
		return topCommand(sys, p, fields[1:])
	case "watch":
		return watchCommand(sys, p, fields[1:])
	case "trace":
		return traceCommand(fs.Tracer(), fields[1:])
	case "faults":
		return faultsCommand(sys.Faults, fields[1:])
	case "power":
		burning, idleDr := 0, 0
		for _, g := range sys.Library.Groups {
			for _, d := range g.Drives {
				switch d.State() {
				case optical.StateBurning:
					burning++
				case optical.StateIdle:
					idleDr++
				}
			}
		}
		cfg := power.PrototypeConfig()
		draw := cfg.Draw(power.State{BurningDrives: burning, IdleDrives: idleDr})
		fmt.Printf("  modeled draw: %.0f W (idle %.0f W, peak %.0f W)\n", draw, cfg.Idle(), cfg.Peak())
	default:
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	return nil
}

// clusterCommand implements the `cluster` group over the federation layer.
func clusterCommand(sys *ros.System, p *sim.Proc, args []string) error {
	cl := sys.Cluster
	if len(args) == 0 {
		return fmt.Errorf("usage: cluster status [--json] | placement [<path>] | kill <i> | revive <i> | addrack")
	}
	switch args[0] {
	case "status":
		st := cl.Status()
		if len(args) > 1 && args[1] == "--json" {
			js, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(js))
			return nil
		}
		fmt.Printf("  replicas=%d entries=%d backlog=%d imbalance=%.1f%%\n",
			st.Replicas, st.Entries, st.Backlog, st.ImbalancePct)
		for _, rs := range st.Racks {
			fmt.Printf("  %-8s %-9s load=%-6d discs=%-5d tray-loads=%-4d burns=%d\n",
				rs.Name, rs.Health, rs.Load, rs.Discs, rs.Loads, rs.Burns)
		}
	case "placement":
		if len(args) > 1 {
			set := cl.ReplicasOf(args[1])
			if set == nil {
				return fmt.Errorf("no placement recorded for %s", args[1])
			}
			fmt.Printf("  %s -> racks %v (primary rack%d)\n", args[1], set, set[0])
			return nil
		}
		fmt.Println("  sequential checking (reallocation-free: growth never moves an image)")
		for ri, load := range cl.Loads() {
			fmt.Printf("  rack%d: %d replica(s) placed\n", ri, load)
		}
		fmt.Printf("  imbalance: %.1f%% worst deviation from mean\n", cl.ImbalancePct())
	case "kill", "revive":
		if len(args) != 2 {
			return fmt.Errorf("usage: cluster %s <rack-index>", args[0])
		}
		ri, err := strconv.Atoi(args[1])
		if err != nil || ri < 0 || ri >= len(cl.Racks()) {
			return fmt.Errorf("bad rack index %q (have %d racks)", args[1], len(cl.Racks()))
		}
		if args[0] == "kill" {
			cl.SetHealth(ri, cluster.HealthOffline)
			fmt.Printf("  rack%d marked offline; %d file(s) queued for re-replication\n", ri, cl.Backlog())
		} else {
			cl.SetHealth(ri, cluster.HealthUp)
			fmt.Printf("  rack%d marked up\n", ri)
		}
	case "addrack":
		r, err := cl.AddRack()
		if err != nil {
			return err
		}
		fmt.Printf("  added %s (%d racks now); existing placements untouched\n", r.Name, len(cl.Racks()))
	default:
		return fmt.Errorf("unknown cluster subcommand %q (status, placement, kill, revive, addrack)", args[0])
	}
	return nil
}

// traceCommand implements `trace list|show <id>|export --perfetto [<id>]`
// over the FS's causal-trace journal.
func traceCommand(tr *obs.Tracer, args []string) error {
	if tr == nil {
		return fmt.Errorf("tracing is disabled (TraceCapacity < 0)")
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: trace list | trace show <id> | trace export --perfetto [<id>]")
	}
	switch args[0] {
	case "list":
		traces := tr.Traces()
		if len(traces) == 0 {
			fmt.Println("  no captured traces (run some requests first)")
			return nil
		}
		for _, t := range traces {
			flags := ""
			if t.Err != "" {
				flags += " err=" + strconv.Quote(t.Err)
			}
			if t.Retries > 0 {
				flags += fmt.Sprintf(" retries=%d", t.Retries)
			}
			fmt.Printf("  %4d %-12s %-11s start=%-14v dur=%-14v spans=%d%s\n",
				t.ID, t.Name, t.Class, t.Start, t.Duration(), len(t.Spans()), flags)
		}
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace show <id>")
		}
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad trace id %q", args[1])
		}
		t := tr.Trace(id)
		if t == nil {
			return fmt.Errorf("no captured trace %d (see trace list)", id)
		}
		fmt.Print(t.Format())
	case "export":
		traces := tr.Traces()
		rest := args[1:]
		if len(rest) > 0 && rest[0] == "--perfetto" {
			rest = rest[1:]
		}
		if len(rest) == 1 {
			id, err := strconv.ParseInt(rest[0], 10, 64)
			if err != nil {
				return fmt.Errorf("bad trace id %q", rest[0])
			}
			t := tr.Trace(id)
			if t == nil {
				return fmt.Errorf("no captured trace %d (see trace list)", id)
			}
			traces = []*obs.Trace{t}
		} else if len(rest) > 1 {
			return fmt.Errorf("usage: trace export --perfetto [<id>]")
		}
		js, err := obs.PerfettoJSON(traces)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	default:
		return fmt.Errorf("unknown trace subcommand %q (list, show, export)", args[0])
	}
	return nil
}

// faultsCommand implements `faults list|arm <spec>|clear` over the system's
// deterministic fault plane. Armed rules affect every subsequent command in
// the session, so a scripted run can arm faults, exercise the stack, and
// inspect the injection schedule.
func faultsCommand(pl *faultinject.Plane, args []string) error {
	if pl == nil {
		return fmt.Errorf("no fault plane registered")
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: faults list | faults arm <spec> | faults clear")
	}
	switch args[0] {
	case "list":
		fmt.Printf("  fault plane seed %d, %d fault(s) injected\n", pl.Seed(), pl.Fires())
		rules := pl.Rules()
		if len(rules) == 0 {
			fmt.Println("  no rules armed (faults arm <spec>; points: " +
				strings.Join(faultinject.Points, " ") + ")")
		}
		for _, r := range rules {
			fmt.Printf("  rule#%-3d %-40s evals=%d fires=%d\n", r.ID, r.Spec, r.Evals, r.Fires)
		}
		if evs := pl.Events(); len(evs) > 0 {
			fmt.Println("  schedule:")
			fmt.Print(pl.ScheduleString())
		}
	case "arm":
		if len(args) < 2 {
			return fmt.Errorf("usage: faults arm <spec> (e.g. optical.read:p=0.05;media.lse:once)")
		}
		// Allow the spec to be split across argv words (shell-unquoted ';'
		// never survives, but spaces around rules are natural to type).
		ids, err := pl.ArmSpec(strings.Join(args[1:], ";"))
		if err != nil {
			return err
		}
		fmt.Printf("  armed %d rule(s): ids %v\n", len(ids), ids)
	case "clear":
		n := len(pl.Rules())
		pl.Clear()
		fmt.Printf("  disarmed %d rule(s); schedule and counters kept\n", n)
	default:
		return fmt.Errorf("unknown faults subcommand %q (list, arm, clear)", args[0])
	}
	return nil
}

// parseSize parses 512, 4KB, 2MB, 1GB.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
