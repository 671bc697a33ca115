package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The exact reference is computed here from first principles, without the
// program's lattice, Hamiltonian or enumerator, so a fault in any of those
// cannot hide in the reference it is checked against.
//
// Cell: BCC 2×2×2 conventional cells, 16 sites, in doubled integer
// coordinates (period 4 on each axis): the corner sublattice has all-even
// coordinates, the body-centre sublattice all-odd. Shell 1 is the 8
// vectors (±1,±1,±1), shell 2 the 6 vectors (±2,0,0) and permutations. On
// a period-4 cell +2 and −2 land on the same site; each shell vector is a
// bond of its own, so such a neighbour is counted twice, once per vector.
//
// Energy: E = ½ Σ_site Σ_shell Σ_vector V_shell[σ_site][σ_neighbour] with
// the NbMoTaW pair table below, kept in integer units of 1e-4 eV so every
// configuration energy is an exact integer.

const (
	refSites   = 16
	refSpecies = 4
	refPerKind = 4
	// energyQuantum is the unit of the integer pair table, in eV.
	energyQuantum = 1e-4
	// refTotal is 16!/(4!)⁴, the number of 4/4/4/4 configurations.
	refTotal = 63063000
)

// nbMoTaWPairs[s][a][b] is the shell-s pair energy of species a and b
// (order Nb, Mo, Ta, W) in units of 1e-4 eV.
var nbMoTaWPairs = [2][refSpecies][refSpecies]int64{
	{
		{0, -80, -20, -160},
		{-80, 0, -210, 40},
		{-20, -210, 0, -120},
		{-160, 40, -120, 0},
	},
	{
		{0, 30, 10, 50},
		{30, 0, 70, -20},
		{10, 70, 0, 40},
		{50, -20, 40, 0},
	},
}

// Spectrum is an exact energy spectrum: distinct energies in units of
// energyQuantum, ascending, with the number of configurations at each.
type Spectrum struct {
	E     []int64
	Count []int64
}

// Total returns the number of configurations in the spectrum.
func (s *Spectrum) Total() int64 {
	var t int64
	for _, c := range s.Count {
		t += c
	}
	return t
}

// EnergyEV returns distinct energy i in eV.
func (s *Spectrum) EnergyEV(i int) float64 { return float64(s.E[i]) * energyQuantum }

// bondTable lists, for every site, the (neighbour, shell) bond of every
// shell vector, periodic images included once per vector.
func bondTable() [refSites][]struct{ nb, shell int } {
	var coords [refSites][3]int
	index := map[[3]int]int{}
	n := 0
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			for z := 0; z < 2; z++ {
				for _, b := range [][3]int{{0, 0, 0}, {1, 1, 1}} {
					c := [3]int{2*x + b[0], 2*y + b[1], 2*z + b[2]}
					coords[n] = c
					index[c] = n
					n++
				}
			}
		}
	}
	var shells [2][][3]int
	for _, a := range []int{-1, 1} {
		for _, b := range []int{-1, 1} {
			for _, c := range []int{-1, 1} {
				shells[0] = append(shells[0], [3]int{a, b, c})
			}
		}
	}
	for axis := 0; axis < 3; axis++ {
		for _, d := range []int{-2, 2} {
			var v [3]int
			v[axis] = d
			shells[1] = append(shells[1], v)
		}
	}
	var bonds [refSites][]struct{ nb, shell int }
	for site, c := range coords {
		for s, vecs := range shells {
			for _, v := range vecs {
				var t [3]int
				for k := range t {
					t[k] = ((c[k]+v[k])%4 + 4) % 4
				}
				bonds[site] = append(bonds[site], struct{ nb, shell int }{index[t], s})
			}
		}
	}
	return bonds
}

// EnumerateReference walks every 4/4/4/4 configuration of the cell in
// site order, adding each site's bonds to already-placed sites as it is
// placed. Each bond i–j appears once from each end with the same pair
// energy, so the ½ of the energy formula cancels against the two ends and
// each bond to an earlier site is added once.
func EnumerateReference() *Spectrum {
	bonds := bondTable()
	var back [refSites][]struct{ nb, shell int }
	for site := range bonds {
		for _, b := range bonds[site] {
			if b.nb < site {
				back[site] = append(back[site], b)
			}
		}
	}
	tally := map[int64]int64{}
	var cfg [refSites]int
	var left [refSpecies]int
	for i := range left {
		left[i] = refPerKind
	}
	var place func(site int, e int64)
	place = func(site int, e int64) {
		if site == refSites {
			tally[e]++
			return
		}
		for sp := 0; sp < refSpecies; sp++ {
			if left[sp] == 0 {
				continue
			}
			de := int64(0)
			for _, b := range back[site] {
				de += nbMoTaWPairs[b.shell][sp][cfg[b.nb]]
			}
			left[sp]--
			cfg[site] = sp
			place(site+1, e+de)
			left[sp]++
		}
	}
	place(0, 0)
	s := &Spectrum{}
	for e := range tally {
		s.E = append(s.E, e)
	}
	sort.Slice(s.E, func(i, j int) bool { return s.E[i] < s.E[j] })
	for _, e := range s.E {
		s.Count = append(s.Count, tally[e])
	}
	return s
}

// WriteSpectrum writes s as "energy count" lines, energy in 1e-4 eV.
func WriteSpectrum(w io.Writer, s *Spectrum) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Exact 4/4/4/4 NbMoTaW spectrum of the 16-site BCC 2x2x2 cell.\n")
	fmt.Fprintf(bw, "# Columns: energy in units of 1e-4 eV, number of configurations.\n")
	fmt.Fprintf(bw, "# Regenerate: cd hea16bench && go run . -make-reference reference.txt\n")
	for i := range s.E {
		fmt.Fprintf(bw, "%d %d\n", s.E[i], s.Count[i])
	}
	return bw.Flush()
}

// ReadSpectrum parses the WriteSpectrum format and checks that the file
// is the complete 4/4/4/4 spectrum.
func ReadSpectrum(r io.Reader) (*Spectrum, error) {
	s := &Spectrum{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("reference: bad line %q", line)
		}
		e, err1 := strconv.ParseInt(f[0], 10, 64)
		c, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil || c <= 0 {
			return nil, fmt.Errorf("reference: bad line %q", line)
		}
		if n := len(s.E); n > 0 && e <= s.E[n-1] {
			return nil, fmt.Errorf("reference: energies not ascending at %q", line)
		}
		s.E = append(s.E, e)
		s.Count = append(s.Count, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if t := s.Total(); t != refTotal {
		return nil, fmt.Errorf("reference: %d configurations, want %d", t, refTotal)
	}
	return s, nil
}

// Grid is a uniform energy binning, the layout of a solve's ln g.
type Grid struct {
	EMin, Width float64
	Bins        int
}

// bin is the index of the bin holding e, or -1 outside the grid.
func (g Grid) bin(e float64) int {
	if e < g.EMin {
		return -1
	}
	i := int(math.Floor((e - g.EMin) / g.Width))
	if i >= g.Bins {
		return -1
	}
	return i
}

// center is the mid-point energy of bin i.
func (g Grid) center(i int) float64 { return g.EMin + (float64(i)+0.5)*g.Width }

// Rebin returns ln of the number of configurations per bin of g (−Inf
// for empty bins), and the number of configurations outside the grid.
func (s *Spectrum) Rebin(g Grid) (logG []float64, outside int64) {
	counts := make([]float64, g.Bins)
	for i := range s.E {
		b := g.bin(s.EnergyEV(i))
		if b < 0 {
			outside += s.Count[i]
			continue
		}
		counts[b] += float64(s.Count[i])
	}
	logG = make([]float64, g.Bins)
	for i, c := range counts {
		logG[i] = math.Inf(-1)
		if c > 0 {
			logG[i] = math.Log(c)
		}
	}
	return logG, outside
}

// canonical reweights a binned ln g (bin-centre energies) to the internal
// energy U (eV) and heat capacity Cv (eV/K) at temperature t (K).
func canonical(logG []float64, g Grid, t float64) (u, cv float64) {
	const kB = 8.617333262e-5
	beta := 1 / (kB * t)
	max := math.Inf(-1)
	for i, lg := range logG {
		if !math.IsInf(lg, -1) {
			max = math.Max(max, lg-beta*g.center(i))
		}
	}
	var z, ze, ze2 float64
	for i, lg := range logG {
		if math.IsInf(lg, -1) {
			continue
		}
		e := g.center(i)
		w := math.Exp(lg - beta*e - max)
		z += w
		ze += w * e
		ze2 += w * e * e
	}
	u = ze / z
	v := ze2/z - u*u
	if v < 0 {
		v = 0
	}
	return u, v / (kB * t * t)
}
