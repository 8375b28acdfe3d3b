package writepath

import (
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/sched"
	"ros/internal/sim"
)

// Controller is the per-rack write-path gate: it owns the admission token
// bucket and attributes admitted bytes to the buckets that absorbed them, so
// the burn pipeline can return them.
type Controller struct {
	cfg Config
	adm *Admission

	// charges maps each data image to the admitted bytes it absorbed, per
	// class. The burn pipeline calls ReleaseBucket when the image reaches
	// the optical tier, returning the tokens.
	charges map[image.ID]*[NumClasses]int64
}

// New creates a write-path controller; r receives the writepath.* metrics.
func New(env *sim.Env, cfg Config, r *obs.Registry) *Controller {
	return &Controller{
		cfg:     cfg,
		adm:     NewAdmission(env, cfg.Admission, sched.Config{}, r),
		charges: make(map[image.ID]*[NumClasses]int64),
	}
}

// Admission returns the token bucket (status, tests).
func (c *Controller) Admission() *Admission { return c.adm }

// Config returns the controller's configuration (admission effective).
func (c *Controller) Config() Config {
	cfg := c.cfg
	cfg.Admission = c.adm.Config()
	return cfg
}

// Admit charges n bytes of class cl against the token bucket, blocking on
// the admission queue while congested; the wait is recorded as a
// writepath.admit child span on the caller's trace. Returns ErrOverload
// when the write is shed.
func (c *Controller) Admit(p *sim.Proc, cl Class, n int64) error {
	if n <= 0 {
		return nil
	}
	if !c.adm.Config().Enabled {
		return c.adm.Acquire(p, cl, n) // accounting only, never blocks
	}
	sp := obs.StartChild(p, "writepath.admit")
	sp.Annotate("class", cl.String())
	sp.AnnotateInt("bytes", n)
	err := c.adm.Acquire(p, cl, n)
	sp.Fail(p, err)
	return err
}

// Release returns admitted bytes that never landed in a bucket (failed or
// short writes).
func (c *Controller) Release(cl Class, n int64) { c.adm.Release(cl, n) }

// ChargeBucket attributes n admitted bytes of class cl to the bucket
// (image) that absorbed them. Attribution does not change the inflight
// total — the bytes were charged at Admit — it only records which image
// will return them when burned.
func (c *Controller) ChargeBucket(id image.ID, cl Class, n int64) {
	if n <= 0 || id.IsZero() {
		return
	}
	e := c.charges[id]
	if e == nil {
		e = new([NumClasses]int64)
		c.charges[id] = e
	}
	e[cl] += n
}

// ReleaseBucket returns a burned image's charges to the token bucket. It
// is a no-op for uncharged images (parity, recovery copies).
func (c *Controller) ReleaseBucket(id image.ID) {
	e := c.charges[id]
	if e == nil {
		return
	}
	delete(c.charges, id)
	for cl := Class(0); cl < NumClasses; cl++ {
		if e[cl] > 0 {
			c.adm.Release(cl, e[cl])
		}
	}
}
