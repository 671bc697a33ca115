package main

import (
	"context"
	"fmt"
	"time"

	"deepthermo/internal/infer"
	"deepthermo/internal/mc"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/thermo"
	"deepthermo/internal/train"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
	"deepthermo/internal/workload"
)

// REWL layout of the benchmark's own solves: four windows with two
// walkers each (hea16-dl: one, below) on the benchmark's own grid. Every
// timed round is one solve to ln f 1e-4, a second or two of sweeps, so a
// run takes the median of many rounds: the sweeps a solve needs vary by
// 10-15 % between seeds, and a contended host slows seconds at a time.
const (
	numWindows    = 4
	walkersPerWin = 2
	prepareSweeps = 20000
	solveLnF      = 1e-4
	warmupLnF     = 1e-1 // warm-up solves stop early: they only run lazy set-up
	warmupSeed    = 0x5eed
	dlWeight      = 0.01
	// One walker per window: with two, every DL call waited for a quorum
	// of eight walkers, a round took 7-9 s and a run held three rounds.
	dlWalkersPerWin = 1
	dlCondT         = 1000
	dlLatent        = 6
	dlHidden        = 96
	dlSamplesPerT   = 250
	dlLadderLen     = 8
	dlTrainEpochs   = 10 // the facade trains 40; at 40 training alone took 7-9 s
	dlKLWarmup      = dlTrainEpochs / 3
	dlBatchSize     = 32
	dlLearningRate  = 2e-3
)

// layerAcc accumulates the per-layer figures of traced solves.
type layerAcc struct {
	solves         int
	sweeps, rounds int64
	wall, cpu      time.Duration
	exTried, exAcc int64
	rmse           float64
	curveNs        int64
}

// add records one traced solve.
func (a *layerAcc) add(res *rewl.Result, wall, cpu time.Duration, rmse float64, curve time.Duration) {
	a.solves++
	a.sweeps += res.TotalSweeps
	a.rounds += int64(res.Rounds)
	a.wall += wall
	a.cpu += cpu
	a.exTried += res.ExchangeTried
	a.exAcc += res.ExchangeAccept
	a.rmse += rmse
	a.curveNs += int64(curve)
}

// metrics fills the rewl, mc, dos and thermo layer metrics.
func (a *layerAcc) metrics(m map[string]float64, tr *tracer, procs int) {
	if a.solves == 0 {
		return
	}
	n := float64(a.solves)
	swap, dl := tr.get("mc.swap"), tr.get("mc.dl")
	m["mc.swap_calls"] = float64(swap.n) / n
	m["mc.swap_ns"] = ratio(float64(swap.ns), float64(swap.n))
	m["mc.swap_accept"] = ratio(float64(swap.ok), float64(swap.n))
	m["mc.dl_calls"] = float64(dl.n) / n
	m["mc.dl_ns"] = ratio(float64(dl.ns), float64(dl.n))
	m["mc.dl_accept"] = ratio(float64(dl.useful), float64(dl.n))
	m["rewl.sweeps"] = float64(a.sweeps) / n
	m["rewl.rounds"] = float64(a.rounds) / n
	m["rewl.sweep_rate"] = ratio(float64(a.sweeps), a.wall.Seconds())
	self := a.cpu.Seconds() - float64(swap.ns+dl.ns)/1e9
	if self < 0 {
		self = 0
	}
	m["rewl.self_s"] = self / n
	m["rewl.cpu_util"] = ratio(a.cpu.Seconds(), a.wall.Seconds()*float64(procs))
	m["rewl.exchange_accept"] = ratio(float64(a.exAcc), float64(a.exTried))
	m["dos.rmse"] = a.rmse / n
	m["thermo.curve_us"] = float64(a.curveNs) / n / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// solveREWL runs one fresh in-process REWL solve and its accuracy checks.
// It returns the operation outcome; with tr set the solve is recorded
// under parent and accumulated into acc.
func solveREWL(c *cell, ref *Spectrum, wins []wanglandau.Window, seed uint64, factory rewl.ProposalFactory,
	opts rewl.Options, tol *tolerance, tr *tracer, parent int64, acc *layerAcc) (op, *rewl.Result) {
	var id, start int64
	if tr != nil {
		id, start = tr.begin()
	}
	w0, c0 := time.Now(), cpuTime()
	res, err := rewl.RunContext(context.Background(), c.ham, startConfig(seed), wins, factory, opts)
	wall, cpu := time.Since(w0), cpuTime()-c0
	if tr != nil {
		tr.end("rewl.run", id, parent, start)
		tr.collect()
	}
	if err != nil {
		return op{err: fmt.Errorf("rewl: %w", err)}, nil
	}
	o, curveT := finishSolve(ref, res, tol)
	if tr != nil {
		acc.add(res, wall, cpu, o.rmse, curveT)
	}
	return o, res
}

// finishSolve computes the thermodynamic curve of a finished solve and
// checks it against the reference; a nil tol (warm-up solves) skips the
// checks.
func finishSolve(ref *Spectrum, res *rewl.Result, tol *tolerance) (op, time.Duration) {
	t0 := time.Now()
	curve, err := thermo.Curve(res.DOS, checkTemps)
	curveT := time.Since(t0)
	if err != nil {
		return op{err: fmt.Errorf("thermo: %w", err)}, curveT
	}
	o := op{fp: fingerprint(res.DOS)}
	if tol == nil {
		return o, curveT
	}
	if !res.AllConverged {
		o.err = fmt.Errorf("solve did not converge in %d rounds", res.Rounds)
		return o, curveT
	}
	o.rmse, _, o.err = check(ref, res.DOS, curve, tol)
	return o, curveT
}

// rewlOptions are the options of the in-process and distributed solves.
func rewlOptions(seed uint64, lnf float64, exchange int) rewl.Options {
	return rewl.Options{
		Seed:             seed,
		WalkersPerWindow: walkersPerWin,
		ExchangeInterval: exchange,
		WL:               wanglandau.Options{LnFFinal: lnf},
		PrepareSweeps:    prepareSweeps,
	}
}

// ---------------------------------------------------------------------------
// hea16-swap

// swapWork runs fresh local-swap REWL solves in process: the EPI kernel
// and Wang-Landau bookkeeping, with no DL, transport or HTTP.
type swapWork struct {
	ref  *Spectrum
	seed uint64
	c    *cell
	wins []wanglandau.Window
	acc  layerAcc
}

func (w *swapWork) factory(tr *tracer) rewl.ProposalFactory {
	return func(win, widx int, src *rng.Source) mc.Proposal {
		return tr.proposal("mc.swap", mc.NewSwapProposal(w.c.ham))
	}
}

func (w *swapWork) setup() error {
	c, err := newCell()
	if err != nil {
		return err
	}
	g, err := solveGrid(w.ref)
	if err != nil {
		return err
	}
	if w.wins, err = windows(g, numWindows); err != nil {
		return err
	}
	w.c = c
	o, _ := solveREWL(c, w.ref, w.wins, warmupSeed, w.factory(nil), rewlOptions(warmupSeed, warmupLnF, 50), nil, nil, 0, nil)
	return o.err
}

func (w *swapWork) round(r int, tr *tracer, parent int64) []op {
	s := opSeed(w.seed, r, 0)
	o, _ := solveREWL(w.c, w.ref, w.wins, s, w.factory(tr), rewlOptions(s, solveLnF, 50), solveTol, tr, parent, &w.acc)
	return []op{o}
}

func (w *swapWork) layers(m map[string]float64, tr *tracer, procs int) { w.acc.metrics(m, tr, procs) }

func (w *swapWork) finish() (int, error) { return 0, nil }

func (w *swapWork) close() {}

// ---------------------------------------------------------------------------
// hea16-dl

// dlWork runs the whole DeepThermo pipeline per operation: temperature-
// ladder data generation, VAE training, and a REWL solve with the
// swap + DL proposal mixture whose forwards go through the batched
// inference engine.
type dlWork struct {
	ref  *Spectrum
	seed uint64
	c    *cell
	wins []wanglandau.Window
	acc  layerAcc

	genS, fitS       float64
	samples          int64
	flushes, batched int64
}

// pipeline generates data and trains a model from seed; it returns the
// model, the samples seen in training and the time of each phase.
func (w *dlWork) pipeline(seed uint64, samplesPerT, epochs int, tr *tracer, parent int64) (*vae.Model, int, time.Duration, time.Duration, error) {
	var ds *workload.Dataset
	var err error
	genT := tr.timed("workload.generate", parent, func() {
		ds, err = workload.Generate(w.c.ham, workload.GenOptions{
			Temps:          workload.TempLadder(300, 3000, dlLadderLen),
			SamplesPerTemp: samplesPerT,
			EquilSweeps:    150,
			GapSweeps:      5,
			Seed:           seed + 7,
			Quota:          w.c.quota,
		})
	})
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("generate: %w", err)
	}
	model, err := vae.New(vae.Config{Sites: refSites, Species: refSpecies, Latent: dlLatent, Hidden: dlHidden, BetaKL: 1}, rng.New(seed+13))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	fitT := tr.timed("train.fit", parent, func() {
		_, err = train.Fit(model, ds, train.Options{
			Epochs: epochs, BatchSize: dlBatchSize, LR: dlLearningRate, Seed: seed + 17, KLWarmupEpochs: dlKLWarmup,
		})
	})
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("train: %w", err)
	}
	return model, ds.Len() * epochs, genT, fitT, nil
}

// factory builds the swap + DL mixture over engine clients. Like the
// facade, it burns the draws a per-walker weight clone would take, so
// the sampled DOS equals the per-walker path's.
func (w *dlWork) factory(model *vae.Model, eng *infer.Engine, tr *tracer, parent int64) rewl.ProposalFactory {
	return func(win, widx int, src *rng.Source) mc.Proposal {
		for i, n := 0, vae.WeightDraws(model.Config()); i < n; i++ {
			src.Float64()
		}
		gp := mc.NewGlobalProposalWith(tr.inferencer(eng.NewClient(), parent), w.c.ham, w.c.quota, mc.CondForT(dlCondT))
		return mc.NewMixture(
			[]mc.Proposal{tr.proposal("mc.swap", mc.NewSwapProposal(w.c.ham)), tr.proposal("mc.dl", gp)},
			[]float64{1 - dlWeight, dlWeight},
		)
	}
}

// run is one pipeline operation from seed.
func (w *dlWork) run(seed uint64, samplesPerT, epochs int, lnf float64, tol *tolerance, tr *tracer, parent int64) op {
	model, samples, genT, fitT, err := w.pipeline(seed, samplesPerT, epochs, tr, parent)
	if err != nil {
		return op{err: err}
	}
	eng := infer.NewEngine(model.CloneWeights(rng.New(seed + 31)))
	opts := rewlOptions(seed, lnf, 50)
	opts.WalkersPerWindow = dlWalkersPerWin
	o, _ := solveREWL(w.c, w.ref, w.wins, seed, w.factory(model, eng, tr, parent), opts, tol, tr, parent, &w.acc)
	if tr != nil {
		st := eng.Stats()
		w.genS += genT.Seconds()
		w.fitS += fitT.Seconds()
		w.samples += int64(samples)
		w.flushes += st.Batches
		w.batched += st.Requests
	}
	return o
}

func (w *dlWork) setup() error {
	c, err := newCell()
	if err != nil {
		return err
	}
	g, err := solveGrid(w.ref)
	if err != nil {
		return err
	}
	if w.wins, err = windows(g, numWindows); err != nil {
		return err
	}
	w.c = c
	return w.run(warmupSeed, 8, 1, warmupLnF, nil, nil, 0).err
}

func (w *dlWork) round(r int, tr *tracer, parent int64) []op {
	return []op{w.run(opSeed(w.seed, r, 0), dlSamplesPerT, dlTrainEpochs, solveLnF, solveTol, tr, parent)}
}

func (w *dlWork) layers(m map[string]float64, tr *tracer, procs int) {
	w.acc.metrics(m, tr, procs)
	if w.acc.solves == 0 {
		return
	}
	n := float64(w.acc.solves)
	inf := tr.get("infer.call")
	m["infer.call_ns"] = ratio(float64(inf.ns), float64(inf.n))
	m["infer.flushes"] = float64(w.flushes) / n
	m["infer.mean_batch"] = ratio(float64(w.batched), float64(w.flushes))
	m["workload.generate_s"] = w.genS / n
	m["train.fit_s"] = w.fitS / n
	m["train.samples_per_s"] = ratio(float64(w.samples), w.fitS)
}

func (w *dlWork) finish() (int, error) { return 0, nil }

func (w *dlWork) close() {}
