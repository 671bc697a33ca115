// Command hea16bench measures wall-clock time to an exactly checked density
// of states on the 16-site BCC 2×2×2 NbMoTaW cell (4/4/4/4), through the
// program's public layer functions, in one process.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	hea16bench --workload hea16-swap --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed reference.txt
var referenceText string

// op is the outcome of one checked operation (a solve, or a thermo query).
type op struct {
	err  error
	rmse float64
	fp   uint64 // fingerprint of the operation's output, for the traced rerun
}

// work is one benchmark workload. setup builds everything up to and
// including a warm-up operation; it may run several times, with close in
// between. round runs round r's operations, seeded from the run's seed,
// r and the operation's index, so every round is the same set of whole
// operations. finish runs checks that need a finished run and returns how
// many operations they failed.
type work interface {
	setup() error
	round(r int, tr *tracer, parent int64) []op
	layers(m map[string]float64, tr *tracer, procs int)
	finish() (int, error)
	close()
}

const (
	// A run sets up at least setupReps times, and then again until the
	// set-ups have taken setupSeconds in all, at most maxSetups times;
	// setup_s is the median.
	setupReps    = 5
	setupSeconds = 2.0
	maxSetups    = 40
	// minRounds is the fewest timed rounds a run makes.
	minRounds = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = []struct{ name, unit string }{
	{"mc.swap_ns", "ns"}, {"mc.swap_calls", "count"}, {"mc.swap_accept", "ratio"},
	{"mc.dl_ns", "ns"}, {"mc.dl_calls", "count"}, {"mc.dl_accept", "ratio"},
	{"rewl.sweeps", "count"}, {"rewl.rounds", "count"}, {"rewl.sweep_rate", "1/s"},
	{"rewl.self_s", "s"}, {"rewl.cpu_util", "ratio"}, {"rewl.exchange_accept", "ratio"},
	{"rewl.checkpoint_files", "count"}, {"rewl.checkpoint_bytes", "bytes"},
	{"infer.call_ns", "ns"}, {"infer.flushes", "count"}, {"infer.mean_batch", "count"},
	{"workload.generate_s", "s"}, {"train.fit_s", "s"}, {"train.samples_per_s", "1/s"},
	{"transport.msgs", "count"}, {"transport.bytes", "bytes"}, {"transport.wait_s", "s"},
	{"transport.send_us", "us"}, {"transport.world_ms", "ms"},
	{"dos.rmse", "nat"}, {"dos.missing_share", "ratio"},
	{"thermo.curve_us", "us"},
	{"server.ready_ms", "ms"}, {"server.submit_ms", "ms"}, {"server.queue_wait_s", "s"},
	{"server.job_run_s", "s"}, {"server.polls", "count"}, {"server.artifact_ms", "ms"},
	{"server.thermo_miss_ms", "ms"}, {"server.thermo_miss_p90_ms", "ms"},
	{"server.thermo_hit_ms", "ms"}, {"server.journal_bytes", "bytes"},
	{"server.query_share", "%"},
	{"trace.overhead_pct", "%"}, {"host.steal_pct", "%"},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "hea16-swap, hea16-dl, hea16-dist-tcp or hea16-serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 28, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workDir := flag.String("work", ".bench_build/hea16bench-work", "directory for checkpoints, server data and traces")
	makeRef := flag.String("make-reference", "", "enumerate the exact spectrum into this file and exit")
	flag.Parse()

	if *makeRef != "" {
		return makeReference(*makeRef)
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	ref, err := ReadSpectrum(strings.NewReader(referenceText))
	if err != nil {
		return fail(err)
	}
	scratch := filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	var w work
	switch *name {
	case "hea16-swap":
		w = &swapWork{ref: ref, seed: *seed}
	case "hea16-dl":
		w = &dlWork{ref: ref, seed: *seed}
	case "hea16-dist-tcp":
		w = &distWork{ref: ref, seed: *seed, dir: scratch}
	case "hea16-serve":
		w = &serveWork{ref: ref, seed: *seed, dir: scratch}
	default:
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	var setups []float64
	var spent float64
	for i := 0; i < setupReps || (spent < setupSeconds && i < maxSetups); i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		m := markHost()
		err := w.setup()
		wall, steal := m.since()
		setups = append(setups, wall.Seconds()*(1-steal))
		spent += wall.Seconds()
		if err != nil {
			w.close()
			return fail(fmt.Errorf("setup: %w", err))
		}
	}
	defer w.close()
	fmt.Fprintf(os.Stderr, "%d set-ups, median %.3f s\n", len(setups), median(setups))

	res := result{Correct: true, Metrics: map[string]metric{}}
	count := func(ops []op) {
		for _, o := range ops {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "failed operation: %v\n", o.err)
			}
		}
	}
	var tr *tracer
	if *trace != 0 {
		tr = newTracer()
	}
	// walls are the rounds' wall times, nets the same net of the host's
	// steal (tts_s), steals the stolen shares.
	var walls, nets, cpus, steals []float64
	var plainS, tracedS float64
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds()+median(walls) <= *seconds; r++ {
		runtime.GC()
		m, c0 := markHost(), cpuTime()
		ops := w.round(r, nil, 0)
		cpu := cpuTime() - c0
		wall, steal := m.since()
		net := wall.Seconds() * (1 - steal)
		walls = append(walls, wall.Seconds())
		nets = append(nets, net)
		cpus = append(cpus, cpu.Seconds())
		steals = append(steals, steal)
		count(ops)
		fmt.Fprintf(os.Stderr, "round %d: %.3fs wall, %.0f%% stolen, %.3fs net, %.3fs CPU, %d operations\n",
			r, wall.Seconds(), 100*steal, net, cpu.Seconds(), len(ops))
		if tr == nil {
			continue
		}
		// The traced pass repeats the round with every layer wrapped; it
		// must reproduce each output bit for bit.
		runtime.GC()
		var traced []op
		m = markHost()
		tr.span("round", 0, func(id int64) { traced = w.round(r, tr, id) })
		d, steal := m.since()
		plainS += net
		tracedS += d.Seconds() * (1 - steal)
		for i := range ops {
			if i >= len(traced) || traced[i].fp != ops[i].fp {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "traced round %d operation %d differs from the untraced one\n", r, i)
			}
		}
	}
	extra, err := w.finish()
	if err != nil {
		return fail(err)
	}
	res.Failed += extra

	if tr == nil {
		res.Metrics["tts_s"] = metric{median(nets), "s"}
		res.Metrics["cpu_s"] = metric{median(cpus), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	} else {
		m := map[string]float64{
			"trace.overhead_pct": 100 * (tracedS/plainS - 1),
			"host.steal_pct":     100 * median(steals),
		}
		w.layers(m, tr, procs)
		for _, l := range layerUnits {
			res.Metrics[l.name] = metric{m[l.name], l.unit}
		}
		if err := tr.write(filepath.Join(*workDir, fmt.Sprintf("trace-%s-%d.json", *name, *seed))); err != nil {
			return fail(err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hea16bench:", err)
	return 1
}

func makeReference(path string) int {
	t0 := time.Now()
	s := EnumerateReference()
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	if err := WriteSpectrum(f, s); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Printf("%d configurations, %d distinct energies from %.4f to %.4f eV, in %.1fs\n",
		s.Total(), len(s.E), s.EnergyEV(0), s.EnergyEV(len(s.E)-1), time.Since(t0).Seconds())
	return 0
}
