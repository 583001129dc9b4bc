package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/powerlaw"
	"hhgb/internal/shard"
	"hhgb/internal/window"
)

// params sizes the workloads. defaultParams is what the benchmark runs;
// the smoke test shrinks it.
type params struct {
	seconds     time.Duration // measured time of every run
	segments    int           // closed-loop rate samples per run
	setupReps   int           // stacks opened to take the setup_s median
	recoverReps int           // fewest recoveries timed for the recover_s median
	recoverTime time.Duration // and recoveries continue until this much time is spent
	lateness    time.Duration // windowed stores' out-of-orderness budget
	lookups     int           // Lookups per read cycle
	minCycles   int           // fewest read cycles a serve phase completes

	batched, mixed windowedLoad

	tinyPool   int           // ingest-tiny: edges per connection, cycled
	tinyPeriod time.Duration // ingest-tiny: serve-phase frame interval
	tinyServe  float64       // ingest-tiny: share of seconds spent serving

	replayEntries int // entries fed through the proto/wal/hier replay legs
}

// windowedLoad shapes a windowed workload: a durable windowed store fed
// frames of one size, each stamped one fixed step of event time after the
// last, first in a closed loop and then in a serve phase.
type windowedLoad struct {
	frame      int             // entries per frame
	frameDur   time.Duration   // event time between consecutive frames
	poolFrames int             // distinct frames cycled through
	retain     []time.Duration // per-level retention
	warm       time.Duration   // event time streamed, untimed, before the closed loop
	serve      float64         // share of seconds spent serving
	period     time.Duration   // serve-phase frame interval
	readRange  time.Duration   // span of the range queries
	// sealed: the range queries read the newest span sealed when the
	// serve phase starts; otherwise the most recent readRange, sliding.
	sealed bool
}

func defaultParams(seconds int) params {
	// Fine windows stay 10 s, past the 4 s roll-up span plus lateness so
	// each rolls up before it expires. Bounded retention keeps the store
	// at a steady size however fast the run ingests, so memory, disk and
	// recovery are per retained entry and the serve phase reads a store
	// of the same shape on every run.
	return params{
		seconds:     time.Duration(seconds) * time.Second,
		segments:    10,
		setupReps:   101,
		recoverReps: 7,
		recoverTime: 4 * time.Second,
		lateness:    5 * time.Second,
		lookups:     8,
		minCycles:   25,
		batched: windowedLoad{
			frame: 4096, frameDur: time.Second * 4096 / (1 << 18), poolFrames: 512,
			retain: []time.Duration{10 * time.Second, 12 * time.Second}, warm: 6 * time.Second,
			serve: 1.0 / 3, period: 60 * time.Millisecond, readRange: time.Second, sealed: true,
		},
		mixed: windowedLoad{
			frame: 256, frameDur: 10 * time.Millisecond, poolFrames: 1 << 11,
			retain: []time.Duration{10 * time.Second, 40 * time.Second}, warm: 45 * time.Second,
			serve: 1.0 / 3, period: 10 * time.Millisecond, readRange: 8 * time.Second,
		},
		tinyPool:      1 << 15,
		tinyPeriod:    time.Millisecond,
		tinyServe:     1.0 / 4,
		replayEntries: 1 << 20,
	}
}

// split divides the measured time into the closed-loop phase and the
// serve phase that takes the given share of it.
func (p params) split(serve float64) (ingest, served time.Duration) {
	served = time.Duration(float64(p.seconds) * serve)
	return p.seconds - served, served
}

// base is the event time the windowed workloads start at.
var base = time.Unix(1_700_000_000, 0)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// leg is one execution of a workload: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
type leg struct {
	p    params
	seed uint64
	work string  // directory for durable stores
	tr   *tracer // nil when untraced
	lg   *spanLog

	metrics   []metric
	acks      ackRecorder // connection 0's ack round trips in the serve phase
	attempted atomic.Int64
	failed    atomic.Int64
	problems  []string

	// Filled for the per-layer metrics.
	scrape  scrape             // registry delta over the timed phase
	layers  map[string]float64 // layer metrics measured directly
	frames  [][2][]uint64      // a prefix of the frames the workload sent
	flat    bool               // frames went to a flat store
	primary float64            // the workload's headline metric
	latency bool               // primary is a latency (lower is better), not a rate
}

func (l *leg) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
}

// check records a failed correctness gate.
func (l *leg) check(ok bool, format string, args ...any) {
	if !ok {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (l *leg) op(err error) error {
	l.attempted.Add(1)
	if err != nil {
		l.failed.Add(1)
	}
	return err
}

// edges draws n R-MAT edges at scale 24.
func edges(n int, seed uint64) (src, dst []uint64, err error) {
	g, err := powerlaw.NewRMAT(scale, seed)
	if err != nil {
		return nil, nil, err
	}
	src, dst = make([]uint64, n), make([]uint64, n)
	return src, dst, g.Fill(src, dst)
}

// firstErr keeps the first error reported by concurrent goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// clientOpts returns the Dial options of connection i: a session, frames
// of the given size shipped as soon as they fill, and on connection 0, the
// serve phase's writer, the ack round-trip observer.
func (l *leg) clientOpts(frame int) func(i int) []hhgbclient.Option {
	return func(i int) []hhgbclient.Option {
		o := []hhgbclient.Option{
			hhgbclient.WithSession(fmt.Sprintf("perfbench-%d", i)),
			hhgbclient.WithFlushEntries(frame),
		}
		if i == 0 {
			o = append(o, hhgbclient.WithAckLatency(l.acks.observe))
		}
		return o
	}
}

// ackRecorder keeps the ack round trips observed while it is on.
type ackRecorder struct {
	on  atomic.Bool
	mu  sync.Mutex
	rtt []time.Duration
}

func (a *ackRecorder) observe(d time.Duration) {
	if a.on.Load() {
		a.mu.Lock()
		a.rtt = append(a.rtt, d)
		a.mu.Unlock()
	}
}

// stop turns recording off and hands over what was recorded.
func (a *ackRecorder) stop() []time.Duration {
	a.on.Store(false)
	a.mu.Lock()
	defer a.mu.Unlock()
	rtt := a.rtt
	a.rtt = nil
	return rtt
}

// keepFrames records a prefix of the frames sent, for the replay legs.
func (l *leg) keepFrames(src, dst []uint64, frame int) {
	for off := 0; off+frame <= len(src) && len(l.frames)*frame < l.p.replayEntries; off += frame {
		l.frames = append(l.frames, [2][]uint64{src[off : off+frame], dst[off : off+frame]})
	}
}

// runBatched is ingest-batched: 4096-entry frames stamped at 2^18
// entries per second of event time, so windows seal and roll up during
// the closed loop; the serve phase continues the stream at a frame every
// 60 ms while the reads query the newest sealed window.
func runBatched(l *leg) error { return runWindowed(l, "ingest-batched", l.p.batched) }

// runMixed is serve-mixed: 256-entry frames stamped 10 ms apart. The
// closed loop back-fills history; the serve phase sends a frame every
// 10 ms, so event time runs with the wall clock and each frame's event time
// is its due time, while the reads query the most recent 8 s.
func runMixed(l *leg) error { return runWindowed(l, "serve-mixed", l.p.mixed) }

// runWindowed runs a windowed workload. Two sessioned connections stream
// timestamped frames in a closed loop into the durable windowed store,
// claiming frames in order from one counter so event time advances a
// fixed step per frame. The serve phase then continues the same stream
// open-loop on connection 0 while connection 1 runs the read cycle. The
// store is then checked, closed and recovered.
func runWindowed(l *leg, name string, w windowedLoad) error {
	p := l.p
	setup := l.lg.open(opPhaseSetup, 0)
	r, setupS, err := setupRig(rigConfig{
		windowed: true, lateness: p.lateness, retain: w.retain, traced: l.tr != nil, conns: 2,
		clientOpts: l.clientOpts(w.frame),
	}, l.work, p.setupReps, l.lg, l.lg.id(setup))
	l.lg.close(setup)
	if err != nil {
		return err
	}
	defer r.close(nil, 0)
	l.add("setup_s", "s", setupS)
	// The memory baseline is the empty stack, clients dialed, taken
	// before the edges are drawn.
	baseline := liveHeap()
	pool := struct{ src, dst []uint64 }{}
	if pool.src, pool.dst, err = edges(w.poolFrames*w.frame, l.seed); err != nil {
		return err
	}
	if l.tr != nil {
		l.keepFrames(pool.src, pool.dst, w.frame)
	}

	var next atomic.Int64
	at := func(k int64) time.Time { return base.Add(time.Duration(k) * w.frameDur) }
	send := func(i int) (int, error) {
		k := next.Add(1) - 1
		off := (k % int64(w.poolFrames)) * int64(w.frame)
		src, dst := pool.src[off:off+int64(w.frame)], pool.dst[off:off+int64(w.frame)]
		return w.frame, r.clients[i].AppendAt(at(k), src, dst)
	}
	// Warm-up, untimed: no window seals until the watermark is a lateness
	// budget past its end, and the store grows until retention expires
	// windows as fast as they seal, so stream that much event time first
	// and time only the steady state of seals, roll-ups and expiry.
	for time.Duration(next.Load())*w.frameDur < w.warm {
		if _, err := send(0); l.op(err) != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := l.op(r.clients[0].Flush()); err != nil {
		return fmt.Errorf("warm-up flush: %w", err)
	}
	before, err := scrapeOf(r.reg)
	if err != nil {
		return err
	}
	ingest, serveFor := p.split(w.serve)
	rate, err := closedLoop(l, r.clients, p.segments, ingest/time.Duration(p.segments), send, nil)
	if err != nil {
		return err
	}
	l.add("ingest_rate", "inserts/s", rate)
	l.primary = rate

	span := func(time.Duration) (time.Time, time.Time) {
		t1 := at(next.Load())
		return t1.Add(-w.readRange), t1
	}
	if w.sealed {
		// The newest span sealed at the start takes no more writes, so its
		// shard results stay cached, and it outlives the serve phase's
		// advance of event time inside the retention.
		t1 := base.Add((time.Duration(next.Load())*w.frameDur - p.lateness).Truncate(windowDur))
		t0 := t1.Add(-w.readRange)
		span = func(time.Duration) (time.Time, time.Time) { return t0, t1 }
	}
	probe := [2]uint64{pool.src[0], pool.dst[0]}
	sr, err := serve(l, r, serveSpec{
		dur: serveFor, period: w.period, probe: probe, span: span,
		send: func(int) error { _, err := send(0); return err },
	})
	if err != nil {
		return err
	}
	if err := l.serveMetrics(sr, w.period); err != nil {
		return err
	}
	if !w.sealed {
		l.latency = true
		if v, err := sr.lookups.percentile(50); err == nil {
			l.primary = v
		}
	}
	// Top up, untimed, to the next roll-up boundary of event time, so
	// every run ends with the same shape of retained windows and the
	// per-entry memory, disk and recovery figures compare like for like.
	rollSpan := int64(rollUp*windowDur) / int64(w.frameDur)
	for next.Load()%rollSpan != 0 {
		if _, err := send(0); l.op(err) != nil {
			return fmt.Errorf("top-up: %w", err)
		}
	}
	if err := l.op(r.clients[0].Flush()); err != nil {
		return fmt.Errorf("top-up flush: %w", err)
	}
	if l.scrape, err = scrapeDelta(r.reg, before); err != nil {
		return err
	}

	verify := l.lg.open(opPhaseVerify, 0)
	defer l.lg.close(verify)
	vid := l.lg.id(verify)
	all, err := allTime(r.wm, l.lg, vid)
	if err != nil {
		return err
	}
	// Retention has expired the oldest windows: the store must hold
	// exactly the frames whose event time its retained windows cover.
	frames := next.Load()
	var held int64
	for _, sp := range all.Spans() {
		lo := min(max(int64(sp.Start.Sub(base)/w.frameDur), 0), frames)
		hi := min(max(int64(sp.End.Sub(base)/w.frameDur), 0), frames)
		held += (hi - lo) * int64(w.frame)
	}
	total, entries, err := viewTotals(all, l.lg, vid)
	if err != nil {
		return err
	}
	l.check(total == uint64(held), "%s: store holds %d packets; its retained windows were sent %d", name, total, held)
	ws := r.wm.WindowStats()
	l.check(ws.LateDrops == 0, "%s: %d late drops", name, ws.LateDrops)

	// Once ingest has stopped, wire answers over one fixed range equal
	// the in-process answers.
	t0, t1 := span(0)
	reader := r.clients[1]
	wv, wok, err1 := reader.Lookup(probe[0], probe[1])
	wtop, err2 := reader.RangeTopSources(lookupTopK, t0, t1)
	wsum, err3 := reader.RangeSummary(t0, t1)
	if err := firstOf(l.op(err1), l.op(err2), l.op(err3)); err != nil {
		return fmt.Errorf("%s verify: %w", name, err)
	}
	iv, iok, err1 := all.Lookup(probe[0], probe[1])
	rg, err2 := r.wm.QueryRange(t0, t1)
	if err := firstOf(err1, err2); err != nil {
		return err
	}
	itop, err1 := rg.TopSources(lookupTopK)
	isum, err2 := rg.Summary()
	if err := firstOf(err1, err2); err != nil {
		return err
	}
	l.check(wv == iv && wok == iok, "%s: wire Lookup %d/%v, in-process %d/%v", name, wv, wok, iv, iok)
	l.check(slices.Equal(wtop, itop), "%s: wire RangeTopSources %v, in-process %v", name, wtop, itop)
	l.check(wsum == isum, "%s: wire RangeSummary %+v, in-process %+v", name, wsum, isum)

	pool.src, pool.dst, all, rg = nil, nil, nil, nil
	if l.tr == nil {
		l.add("mem_bytes_per_entry", "B", float64(int64(liveHeap())-int64(baseline))/float64(held))
	}
	r.closeClients(l.lg, vid)
	return l.closeAndRecover(r, name, total, entries, held, vid)
}

// closeAndRecover closes the durable windowed store, reports its disk
// bytes per held entry, and checks that recovery restores what the closed
// store held. Untraced, recovery is timed recoverReps times on the same
// directory and reported as the median; the traced leg recovers once
// through the window layer itself, which reports what recovery did.
func (l *leg) closeAndRecover(r *rig, workload string, total uint64, entries int, held int64, vid uint32) error {
	if err := l.lg.timed(opStoreClose, vid, r.closeStore); err != nil {
		return err
	}
	// A closed store stays queryable, and the registry's sampling funcs
	// reference it: drop both so recovery does not run beside a full copy.
	r.wm, r.reg = nil, nil
	disk, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	l.add("disk_bytes_per_entry", "B", float64(disk)/float64(held))

	var rtotal uint64
	var rentries int
	if l.tr == nil {
		var times []float64
		for i := 0; i < l.p.recoverReps || sum(times) < l.p.recoverTime.Seconds(); i++ {
			runtime.GC()
			t0 := time.Now()
			rec, err := hhgb.RecoverWindowed(r.dir)
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			times = append(times, time.Since(t0).Seconds())
			if i == 0 {
				rtotal, rentries, err = windowedTotals(rec, nil, 0)
			}
			if err := firstOf(err, rec.Close()); err != nil {
				return err
			}
		}
		l.add("recover_s", "s", median(times))
	} else {
		var st window.RecoverStats
		var s *window.Store[uint64]
		err := l.lg.timed(opRecover, vid, func() error {
			var err error
			s, st, err = window.Recover[uint64](window.Config{
				Shard:   shard.Config{Durable: shard.Durability{Dir: r.dir}, Metrics: shard.NewMetrics(nil)},
				Metrics: window.NewMetrics(nil),
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		l.layers["window.recover_windows"] = float64(st.Windows)
		l.layers["window.recover_replayed_entries"] = float64(st.ReplayedEntries)
		rg, err := s.QueryRange(0, s.Watermark()+int64(windowDur))
		if err == nil {
			rtotal, err = rg.Total()
		}
		if err == nil {
			rentries, err = rg.NVals()
		}
		if err := firstOf(err, s.Close()); err != nil {
			return err
		}
	}
	l.check(rtotal == total && rentries == entries,
		"%s: recovered store holds %d packets / %d entries, closed store held %d / %d", workload, rtotal, rentries, total, entries)
	return nil
}

// runTiny is ingest-tiny: two connections send single-entry frames in a
// closed loop into an in-memory flat store, so per-frame cost dominates.
// The serve phase keeps connection 0 sending single-entry frames
// open-loop while connection 1 runs all-time queries. The flat store has
// no disk of its own: its entries are then written to a durable flat
// store, whose size and recovery time are reported.
func runTiny(l *leg) error {
	p := l.p
	setup := l.lg.open(opPhaseSetup, 0)
	r, setupS, err := setupRig(rigConfig{
		traced: l.tr != nil, conns: 2, clientOpts: l.clientOpts(1),
	}, l.work, p.setupReps, l.lg, l.lg.id(setup))
	l.lg.close(setup)
	if err != nil {
		return err
	}
	defer r.close(nil, 0)
	l.add("setup_s", "s", setupS)
	pools := make([][2][]uint64, 2)
	for i := range pools {
		src, dst, err := edges(p.tinyPool, l.seed+uint64(i)*0x9e3779b9)
		if err != nil {
			return err
		}
		pools[i] = [2][]uint64{src, dst}
	}
	if l.tr != nil {
		l.flat = true
		l.keepFrames(pools[0][0], pools[0][1], 1)
	}
	// The memory baseline is the empty stack with the pools drawn; the
	// store's growth is read at the end of each closed-loop segment,
	// before any query has filled the shards' result caches.
	baseline := liveHeap()
	before, err := scrapeOf(r.reg)
	if err != nil {
		return err
	}

	var next [2]int // each connection's position in its own pool
	var mem []float64
	send := func(i int) error {
		k := next[i] % p.tinyPool
		next[i]++
		return r.clients[i].Append(pools[i][0][k:k+1], pools[i][1][k:k+1])
	}
	ingest, serveFor := p.split(p.tinyServe)
	rate, err := closedLoop(l, r.clients, p.segments, ingest/time.Duration(p.segments), func(i int) (int, error) {
		return 1, send(i)
	}, func() {
		if l.tr == nil {
			mem = append(mem, float64(int64(liveHeap())-int64(baseline))/float64(distinctSent(pools, next)))
		}
	})
	if err != nil {
		return err
	}
	l.add("ingest_rate", "inserts/s", rate)
	l.primary = rate
	// Per stored entry: the pools repeat, so the store's distinct entries
	// stop growing with the inserts and a per-insert figure would fall
	// with every extra second of ingest. The cascade's first level holds
	// the inserts since its last merge, so the heap saws up and down as
	// it fills and drains; the median over the segment ends reads the
	// middle of that cycle instead of wherever one run happened to stop.
	if l.tr == nil {
		l.add("mem_bytes_per_entry", "B", median(mem))
	}
	sr, err := serve(l, r, serveSpec{
		dur: serveFor, period: p.tinyPeriod,
		send:  func(int) error { return send(0) },
		probe: [2]uint64{pools[0][0][0], pools[0][1][0]},
	})
	if err != nil {
		return err
	}
	if err := l.serveMetrics(sr, p.tinyPeriod); err != nil {
		return err
	}
	if l.scrape, err = scrapeDelta(r.reg, before); err != nil {
		return err
	}

	verify := l.lg.open(opPhaseVerify, 0)
	defer l.lg.close(verify)
	vid := l.lg.id(verify)
	r.closeClients(l.lg, vid)
	distinct := distinctSent(pools, next)
	pools = nil
	var sum hhgb.Summary
	if err := l.lg.timed(opShardSummary, vid, func() (err error) { sum, err = r.flat.Summary(); return }); err != nil {
		return err
	}
	var entries int
	if err := l.lg.timed(opShardEntries, vid, func() (err error) { entries, err = r.flat.Entries(); return }); err != nil {
		return err
	}
	n := next[0] + next[1]
	l.check(sum.TotalPackets == uint64(n), "ingest-tiny: store holds %d packets after %d acked inserts", sum.TotalPackets, n)
	l.check(entries == distinct, "ingest-tiny: store holds %d distinct entries, the stream had %d", entries, distinct)
	if l.tr != nil {
		st := r.flat.Stats()
		cascadeLayers(l.layers, st.Updates, st.Cascades, st.CascadedEntries)
		return nil
	}
	return l.flatDurable(r.flat, filepath.Join(l.work, "flat-durable"), sum.TotalPackets, entries)
}

// distinctSent is the benchmark's own count of the stream: the distinct
// pairs among every entry sent, connection i having sent the first next[i]
// entries of its pool, cycling.
func distinctSent(pools [][2][]uint64, next [2]int) int {
	var keys []uint64
	for i, pl := range pools {
		for k := 0; k < min(next[i], len(pl[0])); k++ {
			keys = append(keys, pl[0][k]<<scale|pl[1][k])
		}
	}
	slices.Sort(keys)
	return len(slices.Compact(keys))
}

// flatDurable writes every entry of the flat store into a durable flat
// store in dir, closes it, and reports the bytes it leaves on disk per
// entry and the median time hhgb.Recover takes to reopen it, checking the
// recovered store against the original.
func (l *leg) flatDurable(st *hhgb.Sharded, dir string, total uint64, entries int) error {
	var src, dst, w []uint64
	if err := st.Do(func(s, d, v uint64) bool {
		src, dst, w = append(src, s), append(dst, d), append(w, v)
		return true
	}); err != nil {
		return err
	}
	d, err := hhgb.NewSharded(dim, hhgb.WithShards(shards), hhgb.WithDurability(dir))
	if err != nil {
		return err
	}
	const chunk = 4096
	for off := 0; off < len(src) && err == nil; off += chunk {
		end := min(off+chunk, len(src))
		err = d.AppendWeighted(src[off:end], dst[off:end], w[off:end])
	}
	if err := firstOf(err, d.Close()); err != nil {
		return fmt.Errorf("durable copy: %w", err)
	}
	src, dst, w = nil, nil, nil
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.add("disk_bytes_per_entry", "B", float64(disk)/float64(entries))
	var times []float64
	var rsum hhgb.Summary
	var rentries int
	for i := 0; i < l.p.recoverReps || sum(times) < l.p.recoverTime.Seconds(); i++ {
		runtime.GC()
		t0 := time.Now()
		rec, err := hhgb.Recover(dir)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			if rsum, err = rec.Summary(); err == nil {
				rentries, err = rec.Entries()
			}
		}
		if err := firstOf(err, rec.Close()); err != nil {
			return err
		}
	}
	l.add("recover_s", "s", median(times))
	l.check(rsum.TotalPackets == total && rentries == entries,
		"ingest-tiny: recovered durable copy holds %d packets / %d entries, the store held %d / %d", rsum.TotalPackets, rentries, total, entries)
	return nil
}

// closedLoop drives every client in a closed loop for segments segments
// of segLen, each ending with every client's Flush, after which done (if
// not nil) runs. A segment's rate is the entries its appends carried over
// its time through the last Flush; the result is the median segment rate,
// so one stall on a shared machine moves it less than it moves a single
// run-long rate. send appends one frame on client i and returns its entry
// count.
func closedLoop(l *leg, clients []*hhgbclient.Client, segments int, segLen time.Duration, send func(i int) (int, error), done func()) (rate float64, err error) {
	run := l.lg.open(opPhaseRun, 0)
	defer l.lg.close(run)
	runID := l.lg.id(run)
	var rates []float64
	for seg := 0; seg < segments; seg++ {
		var wg sync.WaitGroup
		var fe firstErr
		segSent := make([]int, len(clients))
		start := time.Now()
		deadline := start.Add(segLen)
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lg := l.tr.log(i + 1)
				for time.Now().Before(deadline) {
					h := lg.open(opAppend, runID)
					n, err := send(i)
					lg.close(h)
					if l.op(err) != nil {
						fe.set(fmt.Errorf("conn %d append: %w", i, err))
						return
					}
					segSent[i] += n
				}
				if err := l.op(lg.timed(opFlush, runID, c.Flush)); err != nil {
					fe.set(fmt.Errorf("conn %d Flush: %w", i, err))
				}
			}()
		}
		wg.Wait()
		if fe.err != nil {
			return 0, fe.err
		}
		total := 0
		for _, n := range segSent {
			total += n
		}
		rates = append(rates, float64(total)/time.Since(start).Seconds())
		if done != nil {
			done()
		}
	}
	return median(rates), nil
}

// serveSpec is a workload's serve phase: connection 0 ships frames on an
// open-loop schedule while connection 1 runs a closed-loop read cycle of
// lookups Lookups of one pair, one top-10 sources query and one summary.
type serveSpec struct {
	dur, period time.Duration
	send        func(j int) error // ships the phase's j-th frame on connection 0
	probe       [2]uint64         // the pair every Lookup asks for
	// span returns the event-time range a read cycle starting elapsed
	// into the phase queries. nil on the flat store, whose queries are
	// all-time.
	span func(elapsed time.Duration) (t0, t1 time.Time)
}

// served is what a serve phase measured.
type served struct {
	late, acks              samples // generator lateness; ack latency from due time
	lookups, topks, sums    samples // wire round trips
	inLookup, inTopK, inSum samples // in-process twins (traced leg only)
}

// serve runs a serve phase. The traced leg follows every wire query with
// the same query made in process on the store, for the client overhead.
func serve(l *leg, r *rig, sv serveSpec) (*served, error) {
	writer, reader := r.clients[0], r.clients[1]
	// Nothing is in flight when recording starts, so every ack recorded
	// belongs to a frame of this phase.
	if err := l.op(writer.Flush()); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	l.acks.on.Store(true)
	dur := sv.dur
	if l.tr != nil {
		// Each wire query is followed by its in-process twin, halving the
		// read cycles; twice the time keeps both at the untraced count.
		dur *= 2
	}
	run := l.lg.open(opPhaseRun, 0)
	runID := l.lg.id(run)
	start := time.Now()
	deadline := start.Add(dur)
	s := &served{}
	var wg sync.WaitGroup
	var fe firstErr
	var readDone atomic.Bool
	wg.Add(2)
	go func() { // the open-loop writer, on schedule until the reader is done
		defer wg.Done()
		lg := l.tr.log(1)
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * sv.period)
			if !due.Before(deadline) && readDone.Load() {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			s.late = append(s.late, time.Since(due))
			h := lg.open(opAppend, runID)
			err := l.op(sv.send(j))
			lg.close(h)
			if err != nil {
				fe.set(fmt.Errorf("writer: %w", err))
				return
			}
		}
		if err := l.op(lg.timed(opFlush, runID, writer.Flush)); err != nil {
			fe.set(fmt.Errorf("writer Flush: %w", err))
		}
	}()
	go func() { // the closed-loop reader
		defer wg.Done()
		defer readDone.Store(true)
		lg := l.tr.log(2)
		timedOp := func(o op, into *samples, f func() error) bool {
			h := lg.open(o, runID)
			t0 := time.Now()
			err := l.op(f())
			*into = append(*into, time.Since(t0))
			lg.close(h)
			if err != nil {
				fe.set(fmt.Errorf("reader %s: %w", opNames[o], err))
			}
			return err == nil
		}
		src, dst := sv.probe[0], sv.probe[1]
		// A phase slowed by a busy host still completes minCycles read
		// cycles, enough for each median, by running past its deadline.
		for cycles := 0; time.Now().Before(deadline) || cycles < l.p.minCycles; cycles++ {
			for i := 0; i < l.p.lookups; i++ {
				if !timedOp(opLookup, &s.lookups, func() error { _, _, err := reader.Lookup(src, dst); return err }) {
					return
				}
				if l.tr == nil {
					continue
				}
				twin := func() (err error) { _, _, err = r.flat.Lookup(src, dst); return }
				o := opShardLookup
				if r.wm != nil {
					o, twin = opViewLookup, func() error {
						v, err := r.wm.AllTime()
						if err == nil {
							_, _, err = v.Lookup(src, dst)
						}
						return err
					}
				}
				if !timedOp(o, &s.inLookup, twin) {
					return
				}
			}
			if sv.span == nil {
				ok := timedOp(opFlatTopK, &s.topks, func() error { _, err := reader.TopSources(lookupTopK); return err }) &&
					(l.tr == nil || timedOp(opShardTopK, &s.inTopK, func() error { _, err := r.flat.TopSources(lookupTopK); return err })) &&
					timedOp(opFlatSummary, &s.sums, func() error { _, err := reader.Summary(); return err }) &&
					(l.tr == nil || timedOp(opShardSummary, &s.inSum, func() error { _, err := r.flat.Summary(); return err }))
				if !ok {
					return
				}
				continue
			}
			t0, t1 := sv.span(time.Since(start))
			inRange := func(f func(v *hhgb.RangeView) error) func() error {
				return func() error {
					v, err := r.wm.QueryRange(t0, t1)
					if err == nil {
						err = f(v)
					}
					return err
				}
			}
			ok := timedOp(opTopK, &s.topks, func() error { _, err := reader.RangeTopSources(lookupTopK, t0, t1); return err }) &&
				(l.tr == nil || timedOp(opViewTopK, &s.inTopK, inRange(func(v *hhgb.RangeView) error { _, err := v.TopSources(lookupTopK); return err }))) &&
				timedOp(opSummary, &s.sums, func() error { _, err := reader.RangeSummary(t0, t1); return err }) &&
				(l.tr == nil || timedOp(opViewSummary, &s.inSum, inRange(func(v *hhgb.RangeView) error { _, err := v.Summary(); return err })))
			if !ok {
				return
			}
		}
	}()
	wg.Wait()
	l.lg.close(run)
	rtt := l.acks.stop()
	if fe.err != nil {
		return nil, fe.err
	}
	// Each frame's ack latency runs from its due time: the generator's
	// lateness plus the wire round trip from ship to ack.
	if len(rtt) != len(s.late) {
		return nil, fmt.Errorf("serve: %d acks observed for %d frames sent", len(rtt), len(s.late))
	}
	s.acks = make(samples, len(s.late))
	for j := range s.late {
		s.acks[j] = s.late[j] + rtt[j]
	}
	return s, nil
}

// serveMetrics reports a serve phase: the end-to-end latencies on the
// untraced leg, the generator's lateness and the client overheads on the
// traced one. A generator that fell ever further behind its schedule
// marks the run invalid.
func (l *leg) serveMetrics(s *served, period time.Duration) error {
	if err := generatorBacklog(s.late, period); err != nil {
		l.check(false, "invalid run: %v", err)
	}
	if l.tr == nil {
		for _, m := range []struct {
			name string
			s    samples
			pct  float64
		}{
			{"ack_p50_ms", s.acks, 50}, {"lookup_p50_ms", s.lookups, 50},
			{"topk_p50_ms", s.topks, 50}, {"summary_p50_ms", s.sums, 50},
		} {
			v, err := m.s.percentile(m.pct)
			if err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
			l.add(m.name, "ms", v)
		}
		// The tails are reported where the phase gave them enough samples;
		// they are not gated (see METRICS.md).
		for _, m := range []struct {
			name string
			s    samples
			pct  float64
		}{
			{"ack_p99_ms", s.acks, 99}, {"lookup_p99_ms", s.lookups, 99},
			{"topk_p90_ms", s.topks, 90}, {"summary_p90_ms", s.sums, 90},
		} {
			if v, err := m.s.percentile(m.pct); err == nil {
				l.add(m.name, "ms", v)
			}
		}
		return nil
	}
	lateMax, lateFrames := time.Duration(0), 0
	for _, d := range s.late {
		lateMax = max(lateMax, d)
		if d > period {
			lateFrames++
		}
	}
	l.layers["driver.gen_late_max_ms"] = ms(lateMax)
	l.layers["driver.gen_late_frames"] = float64(lateFrames)
	for _, q := range []struct {
		name       string
		wire, inpr samples
	}{{"lookup", s.lookups, s.inLookup}, {"topk", s.topks, s.inTopK}, {"summary", s.sums, s.inSum}} {
		w, err1 := q.wire.percentile(50)
		in, err2 := q.inpr.percentile(50)
		if err := firstOf(err1, err2); err != nil {
			return fmt.Errorf("%s overhead: %w", q.name, err)
		}
		l.layers["window.inproc_"+q.name+"_us"] = in * 1e3
		l.layers["client.query_overhead_us."+q.name] = (w - in) * 1e3
	}
	return nil
}

// generatorBacklog reports an open-loop run whose generator fell further
// and further behind: the median lateness of the last quarter of frames
// exceeds that of the first quarter by more than ten periods. Jitter of a
// period or two either way is not a backlog.
func generatorBacklog(late []time.Duration, period time.Duration) error {
	q := len(late) / 4
	if q == 0 {
		return nil
	}
	first, last := samplesMedian(late[:q]), samplesMedian(late[len(late)-q:])
	if last-first > 10*period {
		return fmt.Errorf("generator lateness grew from %v to %v (median, first vs last quarter): the store fell behind the schedule", first, last)
	}
	return nil
}

func samplesMedian(s []time.Duration) time.Duration {
	f := make([]float64, len(s))
	for i, d := range s {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// allTime resolves a view of everything the store retains.
func allTime(wm *hhgb.Windowed, lg *spanLog, parent uint32) (*hhgb.RangeView, error) {
	var v *hhgb.RangeView
	err := lg.timed(opAllTime, parent, func() (err error) { v, err = wm.AllTime(); return })
	return v, err
}

// viewTotals returns a view's packet total and distinct entries.
func viewTotals(v *hhgb.RangeView, lg *spanLog, parent uint32) (total uint64, entries int, err error) {
	err = lg.timed(opViewTotal, parent, func() (err error) { total, err = v.TotalPackets(); return })
	if err == nil {
		err = lg.timed(opViewEntries, parent, func() (err error) { entries, err = v.Entries(); return })
	}
	return total, entries, err
}

// windowedTotals returns the packet total and distinct entries of
// everything the store retains.
func windowedTotals(wm *hhgb.Windowed, lg *spanLog, parent uint32) (uint64, int, error) {
	v, err := allTime(wm, lg, parent)
	if err != nil {
		return 0, 0, err
	}
	return viewTotals(v, lg, parent)
}

func scrapeDelta(reg *hhgb.Metrics, before scrape) (scrape, error) {
	after, err := scrapeOf(reg)
	if err != nil {
		return nil, err
	}
	return after.delta(before), nil
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
