package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op names one call the benchmark makes into a layer's public API. The
// name prefix is the layer (the repo's module), so a reader can group
// spans by layer without a second table.
type op uint8

const (
	opPhaseSetup op = iota
	opPhaseRun
	opPhaseVerify
	opPhaseReplay
	opDial
	opClientClose
	opAppend
	opFlush
	opLookup
	opTopK
	opSummary
	opFlatTopK
	opFlatSummary
	opServerNew
	opServerClose
	opStoreOpen
	opStoreClose
	opRecover
	opAllTime
	opViewLookup
	opViewTopK
	opViewSummary
	opViewTotal
	opViewEntries
	opShardSummary
	opShardEntries
	opShardLookup
	opShardTopK
	opProtoReplay
	opWALReplay
	opHierReplay
	numOps
)

var opNames = [numOps]string{
	opPhaseSetup:   "driver.setup",
	opPhaseRun:     "driver.run",
	opPhaseVerify:  "driver.verify",
	opPhaseReplay:  "driver.replay",
	opDial:         "hhgbclient.Dial",
	opClientClose:  "hhgbclient.Close",
	opAppend:       "hhgbclient.Append",
	opFlush:        "hhgbclient.Flush",
	opLookup:       "hhgbclient.Lookup",
	opTopK:         "hhgbclient.RangeTopSources",
	opSummary:      "hhgbclient.RangeSummary",
	opFlatTopK:     "hhgbclient.TopSources",
	opFlatSummary:  "hhgbclient.Summary",
	opServerNew:    "server.New",
	opServerClose:  "server.Close",
	opStoreOpen:    "hhgb.Open",
	opStoreClose:   "hhgb.Close",
	opRecover:      "window.Recover",
	opAllTime:      "window.AllTime",
	opViewLookup:   "window.RangeView.Lookup",
	opViewTopK:     "window.RangeView.TopSources",
	opViewSummary:  "window.RangeView.Summary",
	opViewTotal:    "window.RangeView.TotalPackets",
	opViewEntries:  "window.RangeView.Entries",
	opShardSummary: "shard.Sharded.Summary",
	opShardEntries: "shard.Sharded.Entries",
	opShardLookup:  "shard.Sharded.Lookup",
	opShardTopK:    "shard.Sharded.TopSources",
	opProtoReplay:  "proto.replay",
	opWALReplay:    "wal.replay",
	opHierReplay:   "hier.replay",
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent uint32
	op         op
	conn       uint8
	start, end int64
}

// tracer keeps every span in memory, one log per goroutine so recording
// takes no lock, and writes them all out when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint32
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanLog records one goroutine's spans. A nil *spanLog records nothing,
// which is how untraced runs skip tracing at the cost of one branch.
type spanLog struct {
	t     *tracer
	conn  uint8
	spans []span
}

// log returns a new per-goroutine log tagged with conn (0 for the
// benchmark's own goroutine, 1.. for client connections).
func (t *tracer) log(conn int) *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t, conn: uint8(conn)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// open starts a span under parent and returns its handle.
func (l *spanLog) open(o op, parent uint32) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		id: l.t.ids.Add(1), parent: parent, op: o, conn: l.conn,
		start: int64(time.Since(l.t.epoch)),
	})
	return len(l.spans) - 1
}

// close ends the span open returned.
func (l *spanLog) close(h int) {
	if l == nil {
		return
	}
	l.spans[h].end = int64(time.Since(l.t.epoch))
}

// id returns the span id behind a handle, for use as a parent.
func (l *spanLog) id(h int) uint32 {
	if l == nil {
		return 0
	}
	return l.spans[h].id
}

// timed wraps f in a span.
func (l *spanLog) timed(o op, parent uint32, f func() error) error {
	h := l.open(o, parent)
	err := f()
	l.close(h)
	return err
}

// all returns every span recorded, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// total sums the durations of every span of op o.
func (t *tracer) total(o op) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.op == o {
				d += s.end - s.start
			}
		}
	}
	return time.Duration(d)
}

// write stores the spans as gzipped CSV: a "# " line holding the run's
// metadata as JSON, a header, then one span per line.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	m, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "# %s\nid,parent,conn,op,start_ns,end_ns\n", m)
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.conn, opNames[s.op], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
