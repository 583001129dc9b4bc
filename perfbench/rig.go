package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hhgb"
	"hhgb/hhgbclient"
	"hhgb/internal/server"
)

// Store shape shared by the windowed workloads: the durable production
// configuration (1 s windows rolled up x4, default cuts and group commit).
const (
	scale      = 24
	dim        = uint64(1) << scale
	shards     = 2
	windowDur  = time.Second
	rollUp     = 4
	lookupTopK = 10
)

// rigConfig describes one store + server + clients stack.
type rigConfig struct {
	windowed bool            // durable windowed store; otherwise in-memory flat
	lateness time.Duration   // windowed only
	retain   []time.Duration // windowed only: per-level retention
	traced   bool            // server samples every frame and spans every query
	conns    int
	// clientOpts returns connection i's Dial options.
	clientOpts func(i int) []hhgbclient.Option
}

// rig is a running stack: the store, an in-process server on a loopback
// listener, and the benchmark's client connections.
type rig struct {
	reg     *hhgb.Metrics
	flat    *hhgb.Sharded
	wm      *hhgb.Windowed
	dir     string
	srv     *server.Server
	served  chan error
	clients []*hhgbclient.Client
	closed  bool // store already closed
}

// openRig builds a stack. dir holds the durable store (windowed only).
func openRig(cfg rigConfig, dir string, lg *spanLog, parent uint32) (*rig, error) {
	r := &rig{reg: hhgb.NewMetrics(), dir: dir}
	opts := []hhgb.Option{hhgb.WithShards(shards), hhgb.WithMetrics(r.reg)}
	err := lg.timed(opStoreOpen, parent, func() error {
		var err error
		if cfg.windowed {
			opts = append(opts, hhgb.WithDurability(dir), hhgb.WithRollUps(rollUp), hhgb.WithRetentions(cfg.retain...), hhgb.WithLateness(cfg.lateness))
			r.wm, err = hhgb.NewWindowed(dim, windowDur, opts...)
		} else {
			r.flat, err = hhgb.NewSharded(dim, opts...)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	scfg := server.Config{Matrix: r.flat, Windowed: r.wm, Metrics: r.reg}
	if cfg.traced {
		// Every frame and every query is spanned into the stage
		// histograms; no flight ring is attached, so nothing is recorded
		// beyond them.
		scfg.TraceSample = 1
		scfg.SlowFrame = -1
		scfg.SlowQuery = time.Hour
	}
	err = lg.timed(opServerNew, parent, func() error {
		var err error
		r.srv, err = server.New(scfg)
		return err
	})
	if err != nil {
		r.close(lg, parent)
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv = nil // never served: nothing to drain
		r.close(lg, parent)
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := 0; i < cfg.conns; i++ {
		var c *hhgbclient.Client
		err := lg.timed(opDial, parent, func() error {
			var err error
			c, err = hhgbclient.Dial(ln.Addr().String(), cfg.clientOpts(i)...)
			return err
		})
		if err != nil {
			r.close(lg, parent)
			return nil, fmt.Errorf("dial: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// closeClients closes the client connections and the server, leaving the
// store open. Close errors are dropped: every run flushes before it tears
// down, so a failing Close loses nothing the checks depend on.
func (r *rig) closeClients(lg *spanLog, parent uint32) {
	for _, c := range r.clients {
		lg.timed(opClientClose, parent, c.Close)
	}
	r.clients = nil
	if r.srv != nil {
		lg.timed(opServerClose, parent, r.srv.Close)
		<-r.served
		r.srv = nil
	}
}

// close tears the whole stack down and removes the durable directory.
func (r *rig) close(lg *spanLog, parent uint32) error {
	r.closeClients(lg, parent)
	err := lg.timed(opStoreClose, parent, r.closeStore)
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	return err
}

func (r *rig) closeStore() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.wm != nil {
		return r.wm.Close()
	}
	return r.flat.Close()
}

// setupRig opens reps stacks one after another, keeps the last, and
// returns the median open time in seconds: store open through server
// listen until every client has dialed. Each earlier stack is torn down
// before the next opens, so no two coexist.
func setupRig(cfg rigConfig, work string, reps int, lg *spanLog, parent uint32) (*rig, float64, error) {
	var times []float64
	var r *rig
	for i := 0; i < reps; i++ {
		if r != nil {
			if err := r.close(lg, parent); err != nil {
				return nil, 0, err
			}
		}
		// Start each set-up from a quiet heap, not amid the garbage of the
		// edge generator or of the stack just torn down.
		runtime.GC()
		dir := ""
		if cfg.windowed {
			dir = filepath.Join(work, fmt.Sprintf("store-%d", i))
		}
		t0 := time.Now()
		var err error
		r, err = openRig(cfg, dir, lg, parent)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// dirBytes sums the sizes of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// scrape is one reading of a metrics registry: every sample line of its
// Prometheus exposition, keyed by series name and labels.
type scrape map[string]float64

func scrapeOf(reg *hhgb.Metrics) (scrape, error) {
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		return nil, err
	}
	out := scrape{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after minus before, series by series.
func (after scrape) delta(before scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// mean returns a histogram series' exact mean (sum / count) in the given
// unit (seconds per unit), or 0 with no observations. Stage histograms
// start their buckets at 100 µs, so quantiles of faster stages would be
// interpolation inside one bucket; the mean is exact.
func (s scrape) mean(family, labels string, unit float64) float64 {
	n := s[family+"_count"+labels]
	if n == 0 {
		return 0
	}
	return s[family+"_sum"+labels] / n / unit
}
