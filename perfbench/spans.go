package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Its layer is the name up to the
// first dot ("chol.Build" belongs to chol).
type span struct {
	name   string
	job    string
	id     int
	parent int // 0: a root span
	start  time.Duration
	end    time.Duration
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil or disabled
// recorder records nothing, so traced and untraced passes run the same
// code.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on }

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name, job string, parent int) int {
	if !r.enabled() {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{name: name, job: job, id: id, parent: parent, start: now, end: -1})
	return id
}

// finish closes span id and returns its duration.
func (r *recorder) finish(id int) time.Duration {
	if !r.enabled() || id == 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = now
	return s.end - s.start
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer string
	spans int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates spans by layer. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		lt := rows[s.layer()]
		if lt == nil {
			lt = &layerTime{layer: s.layer()}
			rows[s.layer()] = lt
		}
		lt.spans++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - covered(s, children[s.id])
	}
	out := make([]layerTime, 0, len(rows))
	for _, lt := range rows {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

func writeSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, lt := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f\n", lt.layer, lt.spans, millis(lt.total), millis(lt.self))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable by
// chrome://tracing and Perfetto), one thread row per job, with the
// environment stamp under otherData.
func (r *recorder) writeChrome(path string, stamp map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	r.mu.Lock()
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		tid, ok := tids[s.job]
		if !ok {
			tid = len(tids) + 1
			tids[s.job] = tid
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"job": s.job, "id": s.id, "parent": s.parent},
		})
	}
	r.mu.Unlock()
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       stamp,
	}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
