package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/server"
	"rnnheatmap/internal/snapshot"
)

// tileSize is the server's default tile edge in pixels.
const tileSize = 256

// traceServed is the traced run of explore (feed false) or feed: input
// preparation traced with the create replay, then the streams merged into
// one script, run once untraced and once traced, each on a fresh set-up.
// writes is feed's writer script (for the final-state check).
func traceServed(cfg *runConfig, out *outcome, in *mapInput, master string, feed bool, first *request, writes, script []*request, warm [][]*request) (*outcome, error) {
	tr := newTracer()
	if err := prepare(cfg, master, tr); err != nil {
		return nil, err
	}
	setup := func(name string) (*server.Server, string, error) {
		if !feed {
			srv, err := exploreServer(filepath.Dir(master), warm)
			return srv, master, err
		}
		dir := filepath.Join(cfg.work, name)
		srv, err := feedServer(dir, master, first, warm)
		return srv, snapshot.MapPath(dir, server.DefaultMapName), err
	}

	srvU, _, err := setup("untraced")
	if err != nil {
		return nil, err
	}
	resU, _ := runStreams(srvU, [][]*request{script})
	srvU.Close()

	var srv *server.Server
	var served string
	sid := tr.call("server.setup", -1, -1, func() { srv, served, err = setup("traced") })
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var model *heatmap.Map
	tr.call("snapshot.open", sid, -1, func() { model, _, err = heatmap.OpenSnapshot(served) })
	if err != nil {
		return nil, err
	}
	var wal *snapshot.WAL
	version := uint64(1)
	if feed {
		// The set-up's first commit is replayed untimed: it belongs to
		// set-up, not to the measured writes.
		if wal, _, err = snapshot.OpenWAL(filepath.Join(cfg.work, "replay.wal")); err != nil {
			return nil, err
		}
		defer wal.Close()
		version++
		if model, err = replayCommit(newTracer(), -1, -1, model, first.deltas, wal, version); err != nil {
			return nil, err
		}
	}
	view, err := newTileView(model)
	if err != nil {
		return nil, err
	}
	before, err := readStats(srv)
	if err != nil {
		return nil, err
	}
	renders := before.Tiles.Renders

	chk := newChecker(cfg.wrong)
	out.chk = chk
	resT := make([]response, len(script))
	var queueMS, commitMS, cover []float64
	for i, rq := range script {
		sampled := rq.keep
		if rq.class == "tile" {
			rq.keep = true // compared with the replayed tile if it rendered
		}
		if rq.class == "write" {
			// A commit and its replay each start from a collected heap, so
			// neither pays for the garbage the other left.
			settle()
		}
		var rid int
		resT[i], rid = tr.request(srv, rq, i)
		rq.keep = sampled
		if !resT[i].ok() {
			continue
		}
		switch rq.class {
		case "heat":
			tr.call("pointloc.query", rid, i, func() { model.HeatAt(rq.pt) })
		case "batch":
			tr.call("pointloc.batch", rid, i, func() { model.HeatAtBatch(rq.pts) })
		case "tile":
			st, err := readStats(srv)
			if err != nil {
				return nil, err
			}
			if st.Tiles.Renders > renders {
				renders = st.Tiles.Renders
				png, err := replayTile(tr, rid, i, view, rq.tile, tileSize)
				if err != nil {
					return nil, err
				}
				chk.check("trace.tile_replay", bytes.Equal(resT[i].body, chk.wantBytes("trace.tile_replay", png)),
					"%s: served %d bytes, the replayed render encodes %d", rq.path, len(resT[i].body), len(png))
			}
			if !sampled {
				resT[i].body = nil
			}
		case "write":
			version++
			first := len(tr.spans)
			settle()
			if model, err = replayCommit(tr, rid, i, model, rq.deltas, wal, version); err != nil {
				return nil, err
			}
			if view, err = newTileView(model); err != nil {
				return nil, err
			}
			var ack struct {
				QueueMS  float64 `json:"queue_ms"`
				CommitMS float64 `json:"commit_ms"`
			}
			if err := json.Unmarshal(resT[i].body, &ack); err != nil {
				return nil, fmt.Errorf("decoding the answer of %s %s: %w", rq.method, rq.path, err)
			}
			queueMS = append(queueMS, ack.QueueMS)
			commitMS = append(commitMS, ack.CommitMS)
			layerUS := 0.0
			for _, s := range tr.spans[first:] {
				layerUS += s.dur()
			}
			cover = append(cover, layerUS/1000/ack.CommitMS)
		}
	}
	after, err := readStats(srv)
	if err != nil {
		return nil, err
	}
	if err := tr.flush(cfg.traceOut); err != nil {
		return nil, err
	}

	probes := 0
	if feed {
		probes, err = checkFeedFinal(chk, cfg, in, srv, first, writes)
	} else {
		err = checkExploreReads(chk, in, [][]*request{script}, [][]response{resT})
	}
	if err != nil {
		return nil, err
	}
	scripts := [][]*request{script, script}
	attempted, failed, classes := statusFailures(scripts, [][]response{resU[0], resT})
	out.attempted = attempted + probes
	out.failed = failed + chk.mismatches()

	layers, absent := layerMetrics(tr)
	ratio, n := hitRatio(before, after)
	out.metrics = append(layers, metric{"server.tile_hit_ratio", ratio, "share", n})
	if feed {
		out.metrics = append(out.metrics,
			metric{"server.queue_ms", median(queueMS), "ms", len(queueMS)},
			metric{"server.commit_ms", median(commitMS), "ms", len(commitMS)},
			metric{"trace.commit_cover", median(cover), "share", len(cover)},
		)
		out.report = append(out.report, fmt.Sprintf(
			"  traced: per commit, delta.apply + pointloc.build + postprocess.summarize + snapshot.wal_append over the server's commit_ms: median %.3f (stated bound: within %.0f%% of 1)",
			median(cover), 100*commitCoverBound))
	}
	out.metrics = append(out.metrics, overheadMetrics(script, resU[0], resT)...)
	out.report = append(out.report,
		fmt.Sprintf("  traced: the streams merged into one script of %d requests, run untraced and then traced, each on a fresh set-up", len(script)),
		"  traced: spans written to "+cfg.traceOut, chk.summary())
	for _, note := range []string{absentNote(absent), failureNote(classes)} {
		if note != "" {
			out.report = append(out.report, note)
		}
	}
	return out, nil
}

// commitCoverBound is the share by which the summed commit-path layer spans
// may differ from the server's own commit_ms on feed.
const commitCoverBound = 0.15
