package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rewl"
	"deepthermo/internal/thermo"
	"deepthermo/internal/wanglandau"
)

// Every solve is checked at these temperatures (K): U(T) and C_v(T) of
// the program's thermodynamic curve against the benchmark's own
// reweighting of the exact reference on the solve's energy grid.
var checkTemps = []float64{200, 300, 450, 600, 800, 1000, 1250, 1500, 2000, 2500, 3000}

// tolerance is the accuracy bar of a solve: RMS ln g error at most gate,
// U(T) within u eV, C_v(T) within cv of the reference's largest C_v on the
// check temperatures, at most the share outside of the reference's
// configurations outside the solve's grid, and at most the share
// unvisited in bins the reference populates and the solve never visited.
type tolerance struct{ gate, u, cv, outside, unvisited float64 }

// Each bar sits several times above the worst correct solve seen
// (README): Wang-Landau error has a long tail, and a check a correct solve
// fails on some seeds would make the failed share depend on the seed. A
// wrong Hamiltonian, binning, merge or reweighting still fails them.
var (
	// solveTol bars the benchmark's own REWL solves (ln f 1e-4),
	// whose grid holds the whole spectrum.
	solveTol = &tolerance{gate: 0.25, u: 0.03, cv: 0.3}
	// serveTol bars server jobs, one window at ln f 1e-3 on the facade's
	// grid. It is a sanity bar: at 1e-3 one job in several hundred is off
	// by 1.7 in RMS ln g. The facade's grid ends below the top of the
	// spectrum, and on some seeds its top bin holds so few configurations
	// that a converged job never visits it. Both depend on the seed, so
	// the random jobs' missing share is reported (dos.missing_share), not
	// barred; a fixed job per round is held to each bar instead. The
	// strict checks on this path are the served curves against the
	// artifact.
	serveTol = &tolerance{gate: 4, u: 0.3, cv: 2, outside: 1, unvisited: 1}
	// inGridTol and unvisitedTol are serveTol with no configuration
	// outside the grid and none in an unvisited bin.
	inGridTol    = &tolerance{gate: 4, u: 0.3, cv: 2, outside: 0, unvisited: 1}
	unvisitedTol = &tolerance{gate: 4, u: 0.3, cv: 2, outside: 1, unvisited: 0}
)

// cell is the 16-site BCC 2×2×2 NbMoTaW system every workload samples.
type cell struct {
	lat   *lattice.Lattice
	ham   *alloy.Model
	quota []int
}

func newCell() (*cell, error) {
	lat, err := lattice.New(lattice.BCC, 2, 2, 2)
	if err != nil {
		return nil, err
	}
	return &cell{lat: lat, ham: alloy.NbMoTaW(lat), quota: []int{4, 4, 4, 4}}, nil
}

// startConfig is a 4/4/4/4 configuration shuffled by the benchmark's own
// generator from seed, so the program receives its starting state as an
// input.
func startConfig(seed uint64) lattice.Config {
	cfg := make(lattice.Config, refSites)
	for i := range cfg {
		cfg[i] = lattice.Species(i / refPerKind)
	}
	s := seed
	for i := len(cfg) - 1; i > 0; i-- {
		j := int(splitmix(&s) % uint64(i+1))
		cfg[i], cfg[j] = cfg[j], cfg[i]
	}
	return cfg
}

// splitmix advances *s and returns the next SplitMix64 output.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opSeed derives the seed of operation i of round r of a run with seed s.
func opSeed(s uint64, r, i int) uint64 {
	x := s*0x100000001b3 + uint64(r)<<20 + uint64(i)
	return splitmix(&x)
}

// solveGrid is the energy grid of the benchmark's own REWL solves: 49
// bins of 0.02 eV from 9 meV below the ground state. Every exact energy
// is a multiple of 2 meV, so the edges fall between energy levels and no
// state's bin depends on rounding.
func solveGrid(ref *Spectrum) (Grid, error) {
	g := Grid{EMin: ref.EnergyEV(0) - 0.009, Width: 0.02}
	g.Bins = int(math.Ceil((ref.EnergyEV(len(ref.E)-1) - g.EMin) / g.Width))
	for i := range ref.E {
		x := (ref.EnergyEV(i) - g.EMin) / g.Width
		if math.Abs(x-math.Round(x)) < 1e-6 {
			return g, fmt.Errorf("energy %g eV lies on a bin edge", ref.EnergyEV(i))
		}
	}
	if _, out := ref.Rebin(g); out != 0 {
		return g, fmt.Errorf("%d states fall outside the solve grid", out)
	}
	return g, nil
}

// windows splits g into REWL windows.
func windows(g Grid, n int) ([]wanglandau.Window, error) {
	return rewl.SplitWindows(g.EMin, g.EMin+float64(g.Bins)*g.Width, n, 0.75, g.Width)
}

// check is the per-solve accuracy check. It re-bins the exact reference
// onto the solve's grid and requires:
//   - at most tol.unvisited of the reference's configurations in bins the
//     solve never visited, and at most tol.outside outside the grid;
//   - RMS ln g error ≤ tol.gate over bins both visit, after removing the
//     free constant;
//   - the lowest visited bin holds the ground state;
//   - U(T), C_v(T) of curve within tolerance of the reference's, with
//     C_v ≥ 0 and U nondecreasing in T.
//
// It returns the RMS error, the share of the reference's configurations
// missing from the DOS (outside its grid or in unvisited bins), and the
// first failure.
func check(ref *Spectrum, d *dos.LogDOS, curve []thermo.Point, tol *tolerance) (rms, missing float64, err error) {
	g := Grid{EMin: d.EMin, Width: d.BinWidth, Bins: len(d.LogG)}
	refLG, outside := ref.Rebin(g)
	var unvisited, n, mean float64
	for i, lg := range d.LogG {
		switch {
		case math.IsInf(refLG[i], -1):
		case math.IsInf(lg, -1):
			unvisited += math.Round(math.Exp(refLG[i]))
		default:
			mean += lg - refLG[i]
			n++
		}
	}
	total := float64(ref.Total())
	missing = (float64(outside) + unvisited) / total
	if !(unvisited/total <= tol.unvisited) {
		return 0, missing, fmt.Errorf("%.0f configurations in bins the solve never visited", unvisited)
	}
	if !(float64(outside)/total <= tol.outside) {
		return 0, missing, fmt.Errorf("%d of %d configurations outside the grid [%g, %g) eV",
			outside, ref.Total(), g.EMin, g.EMin+float64(g.Bins)*g.Width)
	}
	if n == 0 {
		return 0, missing, fmt.Errorf("no bin visited by both the solve and the reference")
	}
	mean /= n
	var ss float64
	for i, lg := range d.LogG {
		if !math.IsInf(lg, -1) && !math.IsInf(refLG[i], -1) {
			r := lg - mean - refLG[i]
			ss += r * r
		}
	}
	rms = math.Sqrt(ss / n)
	if !(rms <= tol.gate) {
		return rms, missing, fmt.Errorf("RMS ln g error %.4f above gate %.4f", rms, tol.gate)
	}
	lo := -1
	for i, lg := range d.LogG {
		if !math.IsInf(lg, -1) {
			lo = i
			break
		}
	}
	if gs := g.bin(ref.EnergyEV(0)); lo != gs {
		return rms, missing, fmt.Errorf("lowest visited bin %d, ground state in bin %d", lo, gs)
	}
	if len(curve) != len(checkTemps) {
		return rms, missing, fmt.Errorf("curve has %d points, want %d", len(curve), len(checkTemps))
	}
	cvMax := 0.0
	us, cvs := make([]float64, len(checkTemps)), make([]float64, len(checkTemps))
	for i, t := range checkTemps {
		us[i], cvs[i] = canonical(refLG, g, t)
		cvMax = math.Max(cvMax, cvs[i])
	}
	for i, p := range curve {
		if p.T != checkTemps[i] {
			return rms, missing, fmt.Errorf("curve point %d at %g K, want %g K", i, p.T, checkTemps[i])
		}
		if !(p.Cv >= 0) {
			return rms, missing, fmt.Errorf("C_v(%g K) = %g < 0", p.T, p.Cv)
		}
		if i > 0 && p.U < curve[i-1].U {
			return rms, missing, fmt.Errorf("U decreases from %g K to %g K", curve[i-1].T, p.T)
		}
		if du := math.Abs(p.U - us[i]); !(du <= tol.u) {
			return rms, missing, fmt.Errorf("U(%g K) off by %.4g eV", p.T, du)
		}
		if dc := math.Abs(p.Cv - cvs[i]); !(dc <= tol.cv*cvMax) {
			return rms, missing, fmt.Errorf("C_v(%g K) off by %.3g of its peak", p.T, dc/cvMax)
		}
	}
	return rms, missing, nil
}

// fingerprint hashes a DOS bit for bit.
func fingerprint(d *dos.LogDOS) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(d.EMin)
	put(d.BinWidth)
	for _, lg := range d.LogG {
		put(lg)
	}
	return h.Sum64()
}

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostMark is a moment with the machine's cumulative CPU ticks, so that
// the wall time of an interval can be taken net of the host's steal.
type hostMark struct {
	t           time.Time
	busy, steal uint64
}

func markHost() hostMark {
	m := hostMark{t: time.Now()}
	m.busy, m.steal = hostTicks()
	return m
}

// since returns the wall time from m to now and the share of the CPU time
// the machine's vCPUs wanted in that interval that the host stole instead:
// steal ticks over busy plus steal ticks. The share reads 0 where
// /proc/stat is missing.
func (m hostMark) since() (time.Duration, float64) {
	wall := time.Since(m.t)
	busy, steal := hostTicks()
	db, ds := float64(busy-m.busy), float64(steal-m.steal)
	if db+ds <= 0 {
		return wall, 0
	}
	return wall, ds / (db + ds)
}

// hostTicks returns the busy (user, nice, system, irq, softirq) and steal
// ticks of all CPUs, from the first line of /proc/stat.
func hostTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]uint64
	for i := 1; i < len(v); i++ {
		v[i], _ = strconv.ParseUint(f[i], 10, 64)
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// maxRSSMB returns the peak resident set of this process image in MB. It
// reads VmHWM rather than getrusage's ru_maxrss, which Linux carries over
// exec from the shell that started the benchmark.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// ckptSize returns the number of checkpoint files (*.ckpt) under dir and
// their bytes.
func ckptSize(dir string) (files, bytes int64) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && strings.HasSuffix(path, ".ckpt") {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
