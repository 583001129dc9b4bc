package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hhgb/internal/flight"
	"hhgb/internal/hier"
	"hhgb/internal/proto"
	"hhgb/internal/wal"
)

// cascadeLevels is the number of level boundaries of the default
// four-level cascade; hier.cascades.L<i> counts promotions of level i.
const cascadeLevels = 3

// layerNames lists every per-layer metric with its unit, in report order.
// Each is printed on every workload: a layer a workload does not exercise
// reads 0, which is itself the expected "does not move" reading.
var layerNames = func() [][2]string {
	out := [][2]string{
		{"driver.gen_late_max_ms", "ms"},
		{"driver.gen_late_frames", "count"},
		{"client.ship_block_s", "s"},
		{"client.flush_s", "s"},
		{"client.query_overhead_us.lookup", "us"},
		{"client.query_overhead_us.topk", "us"},
		{"client.query_overhead_us.summary", "us"},
		{"proto.encode_ns_per_frame", "ns"},
		{"proto.decode_ns_per_frame", "ns"},
		{"proto.wire_bytes_per_entry", "B"},
		{"server.decode_us", "us"},
		{"server.queue_us", "us"},
		{"server.ack_us", "us"},
		{"server.frames_in", "count"},
		{"server.overloads", "count"},
		{"server.rejected", "count"},
		{"server.query_queue_us", "us"},
		{"server.query_encode_us", "us"},
		{"shard.partition_us", "us"},
		{"shard.wait_us", "us"},
		{"shard.apply_us", "us"},
		{"shard.batches_applied", "count"},
		{"shard.entries_per_batch", "count"},
		{"shard.cache_hit_ratio", "ratio"},
		{"shard.cache_lookups", "count"},
		{"shard.cache_invalidations", "count"},
		{"wal.stage_us", "us"},
		{"wal.fsyncs", "count"},
		{"wal.fsync_us", "us"},
		{"wal.checkpoints", "count"},
		{"wal.checkpoint_ms", "ms"},
		{"wal.append_ns_per_entry", "ns"},
		{"wal.bytes_per_entry", "B"},
		{"hier.update_ns_per_entry", "ns"},
	}
	for i := 0; i < cascadeLevels; i++ {
		out = append(out, [2]string{fmt.Sprintf("hier.cascades.L%d", i), "count"})
	}
	for i := 0; i < cascadeLevels; i++ {
		out = append(out, [2]string{fmt.Sprintf("hier.cascaded_fraction.L%d", i), "ratio"})
	}
	return append(out, [][2]string{
		{"window.seals", "count"},
		{"window.rollups", "count"},
		{"window.rollup_ms", "ms"},
		{"window.plan_us", "us"},
		{"window.fanout_us", "us"},
		{"window.fanout_max_us", "us"},
		{"window.merge_us", "us"},
		{"window.windows_touched", "count"},
		{"window.inproc_lookup_us", "us"},
		{"window.inproc_topk_us", "us"},
		{"window.inproc_summary_us", "us"},
		{"window.recover_windows", "count"},
		{"window.recover_replayed_entries", "count"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

// Histogram sums are in seconds; these scale them to the reported units.
const (
	inUS = 1e-6
	inMS = 1e-3
)

// stageLayers reads the traced leg's registry delta: stage means from the
// ingest and query stage histograms, and counter deltas.
func stageLayers(out map[string]float64, d scrape) {
	stage := func(name string) float64 {
		return d.mean(flight.StageHistogramName, `{stage="`+name+`"}`, inUS)
	}
	qstage := func(name string) float64 {
		return d.mean(flight.QueryStageHistogramName, `{stage="`+name+`"}`, inUS)
	}
	out["server.decode_us"] = stage("decode")
	out["server.queue_us"] = stage("queue")
	out["server.ack_us"] = stage("ack")
	out["server.frames_in"] = d["hhgb_server_frames_in_total"]
	out["server.overloads"] = d["hhgb_server_overloads_total"]
	out["server.rejected"] = d["hhgb_server_rejected_total"]
	out["server.query_queue_us"] = qstage("queue")
	out["server.query_encode_us"] = qstage("encode")

	out["shard.partition_us"] = stage("partition")
	out["shard.wait_us"] = stage("shard_wait")
	out["shard.apply_us"] = stage("apply")
	batches := d["hhgb_shard_batches_applied_total"]
	out["shard.batches_applied"] = batches
	if batches > 0 {
		out["shard.entries_per_batch"] = d["hhgb_shard_entries_applied_total"] / batches
	}
	hits, lookups := d["hhgb_shard_cache_hits_total"], d["hhgb_shard_cache_hits_total"]+d["hhgb_shard_cache_misses_total"]
	out["shard.cache_lookups"] = lookups
	if lookups > 0 {
		out["shard.cache_hit_ratio"] = hits / lookups
	}
	out["shard.cache_invalidations"] = d["hhgb_shard_cache_invalidations_total"]

	out["wal.stage_us"] = stage("wal")
	out["wal.fsyncs"] = d["hhgb_shard_wal_fsync_seconds_count"]
	out["wal.fsync_us"] = d.mean("hhgb_shard_wal_fsync_seconds", "", inUS)
	out["wal.checkpoints"] = d["hhgb_shard_checkpoint_seconds_count"]
	out["wal.checkpoint_ms"] = d.mean("hhgb_shard_checkpoint_seconds", "", inMS)

	out["window.seals"] = d["hhgb_window_seals_total"]
	out["window.rollups"] = d["hhgb_window_rollups_total"]
	out["window.rollup_ms"] = d.mean("hhgb_window_rollup_seconds", "", inMS)
	out["window.plan_us"] = qstage("plan")
	out["window.fanout_us"] = qstage("fanout")
	out["window.fanout_max_us"] = qstage("fanout_max")
	out["window.merge_us"] = qstage("merge")
	// Windows touched per query: the per-level window counts summed over
	// levels, over the queries spanned.
	if q := d[flight.QueryStageHistogramName+`_count{stage="total"}`]; q > 0 {
		var w float64
		for _, lv := range []string{"0", "1", "2", "3", "4+"} {
			w += d[flight.QueryWindowsHistogramName+`_sum{level="`+lv+`"}`]
		}
		out["window.windows_touched"] = w / q
	}
}

// replayLayers times the proto, wal and hier layers' public functions on
// the frames the workload sent, outside the server: encode and decode of
// each insert frame, the WAL record append a shard makes per batch, and
// the cascade update a shard applies.
func replayLayers(out map[string]float64, frames [][2][]uint64, flat bool, lg *spanLog, parent uint32) error {
	if len(frames) == 0 {
		return fmt.Errorf("no frames to replay")
	}
	entries := 0
	for _, f := range frames {
		entries = max(entries, len(f[0]))
	}
	ones := make([]uint64, entries)
	for i := range ones {
		ones[i] = 1
	}
	entries = 0
	for _, f := range frames {
		entries += len(f[0])
	}

	// proto: encode every frame body and frame it onto one buffer, then
	// read it back frame by frame.
	h := lg.open(opProtoReplay, parent)
	var wire bytes.Buffer
	pw := proto.NewWriter(&wire)
	kind := proto.KindInsertAt
	if flat {
		kind = proto.KindInsert
	}
	bodies := make([][]byte, len(frames))
	t0 := time.Now()
	for i, f := range frames {
		var err error
		if flat {
			bodies[i], err = proto.AppendInsert(nil, uint64(i+1), f[0], f[1], ones[:len(f[0])])
		} else {
			bodies[i], err = proto.AppendInsertAt(nil, uint64(i+1), uint64(base.UnixNano()), f[0], f[1], ones[:len(f[0])])
		}
		if err != nil {
			return err
		}
	}
	encode := time.Since(t0)
	for _, b := range bodies {
		if err := pw.WriteFrame(kind, b); err != nil {
			return err
		}
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	out["proto.wire_bytes_per_entry"] = float64(pw.Bytes()) / float64(entries)
	bodies = nil
	pr := proto.NewReader(&wire)
	var batch proto.Batch
	t0 = time.Now()
	for {
		fr, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			if flat {
				_, err = proto.ParseInsertBatch(fr.Body, &batch)
			} else {
				_, _, err = proto.ParseInsertAtBatch(fr.Body, &batch)
			}
		}
		if err != nil {
			return fmt.Errorf("proto replay: %w", err)
		}
	}
	decode := time.Since(t0)
	lg.close(h)
	out["proto.encode_ns_per_frame"] = float64(encode.Nanoseconds()) / float64(len(frames))
	out["proto.decode_ns_per_frame"] = float64(decode.Nanoseconds()) / float64(len(frames))

	// wal: one session-keyed batch record per frame, group-committed at
	// the shard layer's default interval.
	h = lg.open(opWALReplay, parent)
	ww := wal.NewWriter(io.Discard)
	var rec []byte
	t0 = time.Now()
	for i, f := range frames {
		var err error
		if rec, err = wal.AppendSessionHeader(rec[:0], "perfbench", uint64(i+1)); err != nil {
			return err
		}
		rec = wal.AppendBatchRecord(rec, f[0], f[1], ones[:len(f[0])], func(v uint64) uint64 { return v })
		if err := ww.Append(rec); err != nil {
			return err
		}
		if (i+1)%64 == 0 {
			if err := ww.Sync(); err != nil {
				return err
			}
		}
	}
	if err := ww.Sync(); err != nil {
		return err
	}
	out["wal.append_ns_per_entry"] = float64(time.Since(t0).Nanoseconds()) / float64(entries)
	out["wal.bytes_per_entry"] = float64(ww.Bytes()) / float64(entries)
	lg.close(h)

	// hier: the default cascade fed frame by frame.
	h = lg.open(opHierReplay, parent)
	m, err := hier.New[uint64](dim, dim, hier.DefaultConfig())
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, f := range frames {
		if err := m.Update(f[0], f[1], ones[:len(f[0])]); err != nil {
			return err
		}
	}
	out["hier.update_ns_per_entry"] = float64(time.Since(t0).Nanoseconds()) / float64(entries)
	lg.close(h)
	if _, ok := out["hier.cascades.L0"]; !ok {
		st := m.Stats()
		cascadeLayers(out, st.Updates, st.Cascades, st.CascadedEntries)
	}
	return nil
}

// cascadeLayers records per-boundary promotion counts and the fraction of
// updates that crossed each boundary.
func cascadeLayers(out map[string]float64, updates int64, cascades, moved []int64) {
	for i := 0; i < cascadeLevels; i++ {
		var c, e int64
		if i < len(cascades) {
			c, e = cascades[i], moved[i]
		}
		out[fmt.Sprintf("hier.cascades.L%d", i)] = float64(c)
		if updates > 0 {
			out[fmt.Sprintf("hier.cascaded_fraction.L%d", i)] = float64(e) / float64(updates)
		}
	}
}
