package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/server"
)

// The plan workload: one closed-loop stream of analyst sessions on a
// durable read-only server. A session takes each of three inputs through
// POST /v1/maps, GET …/optimal?k=10, a dry-run POST …/optimize?k=3 and
// DELETE; every session replays the same three inputs.

// planInputs generates the session's three inputs, the warm-up input and
// the server's default map input. The three session inputs are the same in
// every run, like the map explore serves: a sample's region count — and with
// it the cost of /optimal — varies by a quarter from draw to draw, which
// would set the run-to-run spread. The seed orders the inputs within the
// sessions and draws the warm-up and default maps.
func planInputs(sz *scale, seed int64) (inputs []*mapInput, warm, def *mapInput, err error) {
	for i, spec := range sz.planInputs {
		in, err := newMapInput(spec, subSeed(planSampleSeed, int64(10+i)))
		if err != nil {
			return nil, nil, nil, err
		}
		inputs = append(inputs, in)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	if warm, err = newMapInput(sz.planWarm, subSeed(seed, 20)); err != nil {
		return nil, nil, nil, err
	}
	if def, err = newMapInput(sz.planDefault, subSeed(seed, 21)); err != nil {
		return nil, nil, nil, err
	}
	return inputs, warm, def, nil
}

// planSampleSeed draws the samples of the session's inputs.
const planSampleSeed = 1

// planScript is `sessions` sessions over inputs. Between the dry-run
// /optimize and the DELETE, an untimed GET of the map reads back its
// version for the output check.
func planScript(inputs []*mapInput, sessions int, prefix string) []*request {
	var out []*request
	for s := 0; s < sessions; s++ {
		for i, in := range inputs {
			name := fmt.Sprintf("%s-%d-%d", prefix, s, i)
			base := "/v1/maps/" + name
			out = append(out,
				&request{class: "create", method: "POST", path: "/v1/maps", body: in.createBody(name), input: i, name: name, keep: true},
				&request{class: "optimal", method: "GET", path: base + "/optimal?k=10", input: i, name: name, keep: true},
				&request{class: "optimize", method: "POST", path: base + "/optimize?k=3", input: i, name: name, keep: true},
				&request{class: "check", method: "GET", path: base, input: i, name: name, keep: true},
				&request{class: "delete", method: "DELETE", path: base, input: i, name: name},
			)
		}
	}
	return out
}

// planServer constructs the plan server — durable (snapshots in dir),
// read-only, with a small default map — and runs the untimed warm-up: one
// session over the warm-up input.
func planServer(dir string, def, warm *mapInput) (*server.Server, error) {
	m, err := heatmap.Build(def.config())
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Map: m, SnapshotDir: dir})
	if err != nil {
		return nil, err
	}
	for _, rq := range planScript([]*mapInput{warm}, 1, "warm") {
		if resp := send(srv, rq); !resp.ok() {
			srv.Close()
			return nil, fmt.Errorf("plan warm-up: %s %s answered %d: %s", rq.method, rq.path, resp.status, resp.body)
		}
	}
	return srv, nil
}

func runPlan(cfg *runConfig) (*outcome, error) {
	sz := cfg.sz
	inputs, warm, def, err := planInputs(sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	sessions := sized(cfg.seconds, sz.sessionsPS, 2)
	if cfg.trace {
		sessions = sized(cfg.seconds, sz.sessionsPS*sz.traceShare, 1)
	}
	script := planScript(inputs, sessions, "plan")
	out := &outcome{report: []string{
		fmt.Sprintf("  plan: 1 closed-loop stream, %d sessions x %d inputs (%s; %s; %s), each create, optimal?k=10, dry-run optimize?k=3, delete",
			sessions, len(inputs), inputs[0].spec, inputs[1].spec, inputs[2].spec),
	}}
	if cfg.trace {
		return tracePlan(cfg, out, inputs, warm, def, script)
	}

	srv, setups, err := setUp(sz.setups, func(i int) (*server.Server, error) {
		return planServer(filepath.Join(cfg.work, fmt.Sprintf("plan-setup-%d", i)), def, warm)
	})
	if err != nil {
		return nil, err
	}
	res, _ := runStreams(srv, [][]*request{script})
	peak, err := vmHWM()
	if err != nil {
		return nil, err
	}
	srv.Close()

	chk := newChecker(cfg.wrong)
	out.chk = chk
	if err := checkPlan(chk, inputs, script, res[0]); err != nil {
		return nil, err
	}
	attempted, failed, classes := statusFailures([][]*request{script}, res)
	out.attempted = attempted
	out.failed = failed + chk.mismatches()

	// A session is the analyst's unit of waiting and each session is one
	// sample: its latency (the summed latency of its requests), its
	// requests per second of busy time, and its summed create, optimal and
	// optimize latency; the run reports medians over sessions, and p99 over
	// session latencies. Percentiles over the individual requests would land
	// between request kinds whose latencies differ by far more than the
	// noise, and per-input tasks inherit the noise of a single input.
	per := map[string][]float64{}
	sums := map[string]float64{}
	n := 0
	for i, rq := range script {
		if !rq.timed() {
			continue
		}
		l := res[0][i].latency.Seconds()
		sums[rq.class] += l
		sums["all"] += l
		n++
		if rq.class == "delete" && rq.input == len(inputs)-1 {
			per["rate"] = append(per["rate"], float64(4*len(inputs))/sums["all"])
			for _, c := range []string{"create", "optimal", "optimize", "all"} {
				per[c] = append(per[c], sums[c])
			}
			sums = map[string]float64{}
		}
	}
	sessionMS := make([]float64, len(per["all"]))
	for i, v := range per["all"] {
		sessionMS[i] = v * 1000
	}
	out.metrics = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"requests_per_s", median(per["rate"]), "1/s", n},
		{"p50_ms", quantile(sessionMS, 0.50), "ms", sessions},
		{"p99_ms", quantile(sessionMS, 0.99), "ms", sessions},
		{"peak_rss_mb", peak, "MB", 1},
		{"create_s", median(per["create"]), "s", sessions},
		{"optimal_s", median(per["optimal"]), "s", sessions},
		{"optimize_s", median(per["optimize"]), "s", sessions},
	}
	out.report = append(out.report, chk.summary())
	if note := failureNote(classes); note != "" {
		out.report = append(out.report, note)
	}
	return out, nil
}

// planOracle is a from-scratch heatmap.Build of one input.
type planOracle struct {
	regions int
	maxHeat float64
}

// checkPlan compares every session's answers with from-scratch builds of
// the same inputs: each create's regions and max_heat (plan.create), the
// top /optimal heat against the map's max heat (plan.optimal), and the map
// version read back after the dry-run /optimize against the version the
// create reported (plan.optimize).
func checkPlan(chk *checker, inputs []*mapInput, script []*request, res []response) error {
	oracles := make([]planOracle, len(inputs))
	for i, in := range inputs {
		m, err := heatmap.Build(in.config())
		if err != nil {
			return fmt.Errorf("plan oracle %d: %w", i, err)
		}
		h, _ := m.MaxHeat()
		oracles[i] = planOracle{regions: m.NumRegions(), maxHeat: h}
	}
	created := map[string]int{}
	for i, rq := range script {
		if !res[i].ok() {
			continue
		}
		o := oracles[rq.input]
		switch rq.class {
		case "create":
			var got struct {
				Version int     `json:"version"`
				Regions int     `json:"regions"`
				MaxHeat float64 `json:"max_heat"`
			}
			err := json.Unmarshal(res[i].body, &got)
			created[rq.name] = got.Version
			regions, maxHeat := chk.wantInt("plan.create", o.regions), chk.wantFloat("plan.create", o.maxHeat)
			chk.check("plan.create", err == nil && got.Regions == regions && got.MaxHeat == maxHeat,
				"%s: regions %d max_heat %v, want %d and %v (%v)", rq.name, got.Regions, got.MaxHeat, regions, maxHeat, err)
		case "optimal":
			var got struct {
				Regions []struct {
					Heat float64 `json:"heat"`
				} `json:"regions"`
			}
			err := json.Unmarshal(res[i].body, &got)
			want := chk.wantFloat("plan.optimal", o.maxHeat)
			chk.check("plan.optimal", err == nil && len(got.Regions) > 0 && got.Regions[0].Heat == want,
				"%s: top regions %v, want heat %v first (%v)", rq.name, got.Regions, want, err)
		case "check":
			var got struct {
				Version int `json:"version"`
			}
			err := json.Unmarshal(res[i].body, &got)
			want := chk.wantInt("plan.optimize", created[rq.name])
			chk.check("plan.optimize", err == nil && got.Version == want,
				"%s: version %d after the dry-run optimize, want %d (%v)", rq.name, got.Version, want, err)
		}
	}
	return nil
}

// optimizeSteps decodes the step points of an /optimize answer.
func optimizeSteps(body []byte) ([]geom.Point, error) {
	var got struct {
		Steps []struct {
			Point pointJSON `json:"point"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(got.Steps))
	for i, s := range got.Steps {
		pts[i] = geom.Pt(s.Point.X, s.Point.Y)
	}
	return pts, nil
}

// tracePlan is the traced run: the script once untraced and once traced,
// each on a fresh server, then per-layer metrics from the traced pass.
func tracePlan(cfg *runConfig, out *outcome, inputs []*mapInput, warm, def *mapInput, script []*request) (*outcome, error) {
	srvU, err := planServer(filepath.Join(cfg.work, "plan-untraced"), def, warm)
	if err != nil {
		return nil, err
	}
	resU, _ := runStreams(srvU, [][]*request{script})
	srvU.Close()

	tr := newTracer()
	var srv *server.Server
	tr.call("server.setup", -1, -1, func() { srv, err = planServer(filepath.Join(cfg.work, "plan-traced"), def, warm) })
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	scratch := filepath.Join(cfg.work, "replay")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	builds := map[string]*built{}
	resT := make([]response, len(script))
	for i, rq := range script {
		// A request and its replay each start from a collected heap, so
		// neither pays for the garbage the other left.
		settle()
		var rid int
		resT[i], rid = tr.request(srv, rq, i)
		if !resT[i].ok() {
			continue
		}
		settle()
		var err error
		switch rq.class {
		case "create":
			builds[rq.name], err = replayCreate(tr, rid, i, inputs[rq.input], filepath.Join(scratch, rq.name+".snap"))
		case "optimal":
			err = replayOptimal(tr, rid, i, builds[rq.name])
		case "optimize":
			var pts []geom.Point
			if pts, err = optimizeSteps(resT[i].body); err == nil {
				err = replayOptimize(tr, rid, i, builds[rq.name], pts)
			}
		case "delete":
			delete(builds, rq.name)
			err = os.Remove(filepath.Join(scratch, rq.name+".snap"))
		}
		if err != nil {
			return nil, fmt.Errorf("replaying %s %s: %w", rq.method, rq.path, err)
		}
	}
	if err := tr.flush(cfg.traceOut); err != nil {
		return nil, err
	}

	chk := newChecker(cfg.wrong)
	out.chk = chk
	if err := checkPlan(chk, inputs, script, resT); err != nil {
		return nil, err
	}
	scripts := [][]*request{script, script}
	attempted, failed, classes := statusFailures(scripts, [][]response{resU[0], resT})
	out.attempted = attempted
	out.failed = failed + chk.mismatches()
	layers, absent := layerMetrics(tr)
	out.metrics = append(layers, overheadMetrics(script, resU[0], resT)...)
	out.report = append(out.report,
		"  traced: the script run untraced and then traced, each on a fresh set-up",
		"  traced: spans written to "+cfg.traceOut, chk.summary())
	for _, note := range []string{absentNote(absent), failureNote(classes)} {
		if note != "" {
			out.report = append(out.report, note)
		}
	}
	return out, nil
}
