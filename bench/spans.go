package main

import (
	"time"

	"ros/internal/sim"
)

// span is one harness-side record around a call into the system, on both
// clocks. Parent is an index into the recorder's spans, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	VStart int64  `json:"virtual_start_ns"`
	VEnd   int64  `json:"virtual_end_ns"`
	HStart int64  `json:"host_start_ns"`
	HEnd   int64  `json:"host_end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes pay only a nil check.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

type openSpan struct {
	r  *spanRecorder
	id int
}

func (r *spanRecorder) start(p *sim.Proc, name string, parent *openSpan) *openSpan {
	if r == nil {
		return nil
	}
	if r.t0.IsZero() {
		r.t0 = time.Now()
	}
	pid := -1
	if parent != nil {
		pid = parent.id
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: pid,
		VStart: int64(p.Now()), HStart: int64(time.Since(r.t0)),
	})
	return &openSpan{r: r, id: len(r.spans) - 1}
}

func (s *openSpan) end(p *sim.Proc) {
	if s == nil {
		return
	}
	sp := &s.r.spans[s.id]
	sp.VEnd = int64(p.Now())
	sp.HEnd = int64(time.Since(s.r.t0))
}
