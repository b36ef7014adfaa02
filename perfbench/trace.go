package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the log's
// epoch; parent indexes the span's group (-1 for a root); n is the
// number of elements the call processed, where that is meaningful.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"` // solve or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	N      int64  `json:"n,omitempty"`
}

// keepSpans bounds how many spans a traced run writes out; the self
// times and counts it reports cover every span recorded.
const keepSpans = 200000

// spanLog keeps spans in memory: the current group (one solve or one
// request) until it is closed, a bounded prefix of all groups for the
// output file, and per-name totals of self time, wall time, elements
// and calls over everything recorded.
type spanLog struct {
	epoch    time.Time
	cur      []span
	kept     []span
	recorded int
	self     map[string]int64
	byRoot   map[string]map[string]int64 // root span name → span name → self time
	total    map[string]int64
	elems    map[string]int64
	calls    map[string]int64
}

func newSpanLog() *spanLog {
	return &spanLog{
		epoch:  time.Now(),
		self:   map[string]int64{},
		byRoot: map[string]map[string]int64{},
		total:  map[string]int64{},
		elems:  map[string]int64{},
		calls:  map[string]int64{},
	}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span under parent and returns its index in the group.
func (l *spanLog) begin(name string, id uint64, parent int32) int32 {
	l.cur = append(l.cur, span{Name: name, ID: id, Start: l.now(), Parent: parent})
	return int32(len(l.cur) - 1)
}

// end closes span i, which processed n elements.
func (l *spanLog) end(i int32, n int) {
	l.cur[i].End = l.now()
	l.cur[i].N = int64(n)
}

// add records an already-timed span (times relative to the epoch).
func (l *spanLog) add(s span) int32 {
	l.cur = append(l.cur, s)
	return int32(len(l.cur) - 1)
}

// close ends the current group: each span's self time is its duration
// minus the durations of its direct children, which never overlap one
// another in this benchmark's groups.
func (l *spanLog) close() {
	child := make([]int64, len(l.cur))
	for _, s := range l.cur {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	root := ""
	for _, s := range l.cur {
		if s.Parent < 0 {
			root = s.Name
			break
		}
	}
	if l.byRoot[root] == nil {
		l.byRoot[root] = map[string]int64{}
	}
	for i, s := range l.cur {
		d := s.End - s.Start
		l.self[s.Name] += d - child[i]
		l.byRoot[root][s.Name] += d - child[i]
		l.total[s.Name] += d
		l.elems[s.Name] += s.N
		l.calls[s.Name]++
	}
	l.recorded += len(l.cur)
	if len(l.kept)+len(l.cur) <= keepSpans {
		l.kept = append(l.kept, l.cur...)
	}
	l.cur = l.cur[:0]
}

// perElem is the mean wall time per processed element of spans named
// name, in nanoseconds.
func (l *spanLog) perElem(name string) float64 {
	if l.elems[name] == 0 {
		return 0
	}
	return float64(l.total[name]) / float64(l.elems[name])
}

// share is the self time of the named spans as a fraction of the total
// time of the root spans named root.
func (l *spanLog) share(root string, names ...string) float64 {
	if l.total[root] == 0 {
		return 0
	}
	var t int64
	for _, n := range names {
		t += l.self[n]
	}
	return float64(t) / float64(l.total[root])
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.kept {
		if err := enc.Encode(&l.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable prints the self time and call count of every span name
// under roots named root, the attribution behind the per-layer shares.
func (l *spanLog) selfTable(root string) {
	names := make([]string, 0, len(l.byRoot[root]))
	for name := range l.byRoot[root] {
		names = append(names, name)
	}
	sort.Strings(names)
	rootT := float64(l.total[root])
	for _, name := range names {
		self := l.byRoot[root][name]
		fmt.Printf("self %-24s %12.3f ms  %6.2f%%  calls %d\n", name, float64(self)/1e6, 100*float64(self)/rootT, l.calls[name])
	}
}
