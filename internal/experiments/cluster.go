package experiments

import (
	"fmt"
	"sort"
	"time"

	"ros/internal/cluster"
	"ros/internal/faultinject"
	"ros/internal/obs"
	"ros/internal/olfs"
	"ros/internal/sim"
)

// ClusterFailover measures the multi-rack federation (internal/cluster): read
// latency scaling over 1/2/4 racks, the cost of serving from a degraded rack,
// and failover behaviour with the primary rack offline. The interesting
// shape of this scaling run is that degraded-rack reads stay close to healthy
// reads whenever a second replica exists (selection steers around the sick
// rack), and that an offline primary costs zero failed reads — only
// failovers.
func ClusterFailover() (Result, error) {
	res := Result{
		ID:     "cluster-failover",
		Title:  "Multi-rack federation: scaling, degraded-rack p95, offline failover (internal/cluster)",
		Series: map[string][]Point{},
	}
	const (
		files     = 24
		fileBytes = 256 << 10
	)
	type row struct {
		racks                      int
		healthy, degraded, offline float64 // read p95, ms
		failovers                  int64
	}
	var rows []row
	for _, racks := range []int{1, 2, 4} {
		env := sim.NewEnv()
		plane := faultinject.New(env, 1)
		reg := obs.New(env)
		replicas := 2
		if racks < 2 {
			replicas = 1
		}
		cl, err := cluster.New(env, cluster.Config{
			Racks:    racks,
			Replicas: replicas,
			Stack: cluster.StackConfig{
				Rollers:     1,
				DriveGroups: 2,
				BufferSlots: 12,
				BucketBytes: 1 << 20,
				FS: olfs.Config{
					DataDiscs: 2, ParityDiscs: 1, AutoBurn: true,
					// Burned buckets leave the buffer so reads pay the
					// mechanical path the replica selector models.
					RecycleAfterBurn: true,
				},
				Obs: reg,
			},
		})
		if err != nil {
			return res, err
		}
		run := func(fn func(p *sim.Proc) error) error {
			var ferr error
			env.Go("bench", func(p *sim.Proc) { ferr = fn(p) })
			env.Run()
			if ferr == nil && env.Deadlocked() {
				ferr = fmt.Errorf("cluster-failover: deadlock at %d racks", racks)
			}
			return ferr
		}
		path := func(i int) string { return fmt.Sprintf("/bench/f%03d", i) }
		data := func(i int) []byte {
			b := make([]byte, fileBytes)
			for j := range b {
				b[j] = byte(i + j*7)
			}
			return b
		}
		err = run(func(p *sim.Proc) error {
			for i := 0; i < files; i++ {
				if err := cl.WriteFile(p, path(i), data(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		p95 := func() (float64, error) {
			var lats []time.Duration
			err := run(func(p *sim.Proc) error {
				for i := 0; i < files; i++ {
					start := p.Now()
					if _, err := cl.ReadFile(p, path(i)); err != nil {
						return err
					}
					lats = append(lats, p.Now()-start)
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			return float64(lats[(len(lats)*95+99)/100-1]) / 1e6, nil
		}
		r := row{racks: racks}
		if r.healthy, err = p95(); err != nil {
			return res, err
		}
		cl.SetHealth(0, cluster.HealthDegraded)
		if r.degraded, err = p95(); err != nil {
			return res, err
		}
		if racks > 1 {
			// Offline via the fault plane rather than an admin transition, so
			// the first read routed at rack 0 genuinely fails over mid-op
			// (admin-offlined racks are skipped at planning time).
			cl.SetHealth(0, cluster.HealthUp)
			if _, err = plane.ArmSpec("rack.offline@rack0"); err != nil {
				return res, err
			}
			if r.offline, err = p95(); err != nil {
				return res, err
			}
			plane.Clear()
		} else {
			cl.SetHealth(0, cluster.HealthUp)
			r.offline = r.healthy // single rack has nothing to fail over to
		}
		r.failovers = reg.Counter("cluster.failovers").Value()
		rows = append(rows, r)
		cl.Stop()
		env.Run()
		env.Close()
	}
	for _, r := range rows {
		pre := fmt.Sprintf("%d rack(s)", r.racks)
		res.Metrics = append(res.Metrics,
			Metric{Name: pre + " healthy read p95", Measured: r.healthy, Unit: "ms"},
			Metric{Name: pre + " degraded-rack read p95", Measured: r.degraded, Unit: "ms"},
			Metric{Name: pre + " offline-primary read p95", Measured: r.offline, Unit: "ms"},
			Metric{Name: pre + " failovers", Measured: float64(r.failovers), Unit: "count"},
		)
		res.Series["healthy_p95_ms"] = append(res.Series["healthy_p95_ms"], Point{X: float64(r.racks), Y: r.healthy})
		res.Series["degraded_p95_ms"] = append(res.Series["degraded_p95_ms"], Point{X: float64(r.racks), Y: r.degraded})
		res.Series["offline_p95_ms"] = append(res.Series["offline_p95_ms"], Point{X: float64(r.racks), Y: r.offline})
	}
	res.Notes = "shape: degraded-rack p95 tracks healthy p95 once replicas exist (>= 2 racks);\n" +
		"an offline primary costs failovers, never failed reads; placement stays reallocation-free"
	return res, nil
}
