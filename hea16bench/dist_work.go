package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepthermo/internal/mc"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// hea16-dist-tcp runs the same REWL solve through rewl.RunDistributed
// over a two-rank loopback TCP world formed through the rendezvous
// coordinator, with per-rank checkpoints, so transport, the distributed
// leader and checkpoint I/O carry a share of the time.
const (
	distRanks = 2
	// Exchange every 200 sweeps. Each exchange round is a chain of
	// synchronous leader round trips, and every round trip waits for the
	// other rank's goroutine to be scheduled: at 10 sweeps a solve made
	// some 70,000 of them, and at 50 the run medians of a set of runs
	// still spread by 0.38 of their median on a host with 20 % steal.
	distExchange = 200
	// Checkpoints every 5 rounds (1000 sweeps). More often, the thousands
	// of atomic writes per run, each with two fsyncs, throttled the disk
	// of a 2-vCPU VM within minutes and slowed every later run.
	distCkptEvery   = 5
	distJoinTimeout = 20 * time.Second
)

type distWork struct {
	ref  *Spectrum
	seed uint64
	dir  string
	c    *cell
	wins []wanglandau.Window
	acc  layerAcc

	co      *transport.Coordinator
	eps     []transport.Endpoint
	worldMs float64

	checked               bool // the bit-identity check's solve is recorded
	checkSeed             uint64
	checkFP               uint64
	ckptWrites, ckptBytes int64
	sent                  int64
}

func (w *distWork) factory(tr *tracer) rewl.ProposalFactory {
	return func(win, widx int, src *rng.Source) mc.Proposal {
		return tr.proposal("mc.swap", mc.NewSwapProposal(w.c.ham))
	}
}

func (w *distWork) options(seed uint64, lnf float64) rewl.Options {
	o := rewlOptions(seed, lnf, distExchange)
	o.CheckpointDir = filepath.Join(w.dir, "ckpt")
	o.CheckpointEvery = distCkptEvery
	return o
}

// formWorld starts the coordinator and joins both ranks over loopback.
func (w *distWork) formWorld() error {
	t0 := time.Now()
	co, err := transport.NewCoordinator("127.0.0.1:0", distRanks)
	if err != nil {
		return err
	}
	eps := make([]transport.Endpoint, distRanks)
	errs := make([]error, distRanks)
	var wg sync.WaitGroup
	for i := 0; i < distRanks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := transport.Join(context.Background(), co.Addr(), transport.JoinOptions{Timeout: distJoinTimeout})
			if err != nil {
				errs[i] = err
				return
			}
			eps[ep.Rank()] = ep
		}(i)
	}
	wg.Wait()
	w.co, w.eps = co, eps
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("join: %w", err)
		}
	}
	w.worldMs = float64(time.Since(t0)) / 1e6
	return nil
}

// solve runs one distributed solve: rank 1 on its own goroutine, the
// leader on this one.
func (w *distWork) solve(seed uint64, lnf float64, tol *tolerance, tr *tracer, parent int64) op {
	opts := w.options(seed, lnf)
	if err := os.RemoveAll(opts.CheckpointDir); err != nil {
		return op{err: err}
	}
	var id, start int64
	if tr != nil {
		id, start = tr.begin()
	}
	sent0 := w.eps[0].BytesSent() + w.eps[1].BytesSent()
	w0, c0 := time.Now(), cpuTime()
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, werr = rewl.RunDistributed(context.Background(), tr.endpoint(w.eps[1], id), w.c.ham, startConfig(seed), w.wins, w.factory(tr), opts)
	}()
	res, err := rewl.RunDistributed(context.Background(), tr.endpoint(w.eps[0], id), w.c.ham, startConfig(seed), w.wins, w.factory(tr), opts)
	wg.Wait()
	wall, cpu := time.Since(w0), cpuTime()-c0
	if tr != nil {
		tr.end("rewl.run_distributed", id, parent, start)
		tr.collect()
	}
	if err == nil {
		err = werr
	}
	if err != nil {
		return op{err: fmt.Errorf("rewl: %w", err)}
	}
	o, curveT := finishSolve(w.ref, res, tol)
	if tr != nil {
		w.acc.add(res, wall, cpu, o.rmse, curveT)
		// Every distCkptEvery rounds each rank writes one file; retention
		// keeps the last few, which give the size of one.
		written := int64(res.Rounds/distCkptEvery) * distRanks
		files, bytes := ckptSize(opts.CheckpointDir)
		w.ckptWrites += written
		w.ckptBytes += int64(ratio(float64(written*bytes), float64(files)))
		w.sent += w.eps[0].BytesSent() + w.eps[1].BytesSent() - sent0
	}
	return o
}

func (w *distWork) setup() error {
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
	if err := w.formWorld(); err != nil {
		return err
	}
	return w.solve(warmupSeed, warmupLnF, nil, nil, 0).err
}

func (w *distWork) round(r int, tr *tracer, parent int64) []op {
	s := opSeed(w.seed, r, 0)
	o := w.solve(s, solveLnF, solveTol, tr, parent)
	if !w.checked && o.err == nil {
		w.checked, w.checkSeed, w.checkFP = true, s, o.fp
	}
	return []op{o}
}

// finish checks that one of the run's distributed solves is bit-identical
// to a single-process rewl.RunContext with the same options; a mismatch
// fails that solve.
func (w *distWork) finish() (int, error) {
	if !w.checked {
		return 0, nil
	}
	opts := w.options(w.checkSeed, solveLnF)
	opts.CheckpointDir = filepath.Join(w.dir, "ckpt-single")
	res, err := rewl.RunContext(context.Background(), w.c.ham, startConfig(w.checkSeed), w.wins, w.factory(nil), opts)
	if err != nil {
		return 0, fmt.Errorf("single-process reference solve: %w", err)
	}
	if fingerprint(res.DOS) != w.checkFP {
		fmt.Fprintf(os.Stderr, "failed operation: distributed DOS of seed %d differs from the single-process one\n", w.checkSeed)
		return 1, nil
	}
	return 0, nil
}

func (w *distWork) layers(m map[string]float64, tr *tracer, procs int) {
	w.acc.metrics(m, tr, procs)
	if w.acc.solves == 0 {
		return
	}
	n := float64(w.acc.solves)
	send, wait := tr.get("transport.send"), tr.get("transport.wait")
	m["transport.msgs"] = float64(send.n) / n
	m["transport.bytes"] = float64(w.sent) / n
	m["transport.wait_s"] = float64(wait.ns) / 1e9 / n
	m["transport.send_us"] = ratio(float64(send.ns)/1e3, float64(send.n))
	m["transport.world_ms"] = w.worldMs
	m["rewl.checkpoint_files"] = float64(w.ckptWrites) / n
	m["rewl.checkpoint_bytes"] = float64(w.ckptBytes) / n
}

func (w *distWork) close() {
	for _, ep := range w.eps {
		if ep != nil {
			ep.Close()
		}
	}
	if w.co != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.co.Wait(ctx)
		cancel()
		w.co.Close()
	}
	w.co, w.eps = nil, nil
}
