package main

import (
	"math"
	"strings"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
)

// TestReferenceFile: the committed spectrum is what the enumerator
// produces, and it counts every 4/4/4/4 configuration once.
func TestReferenceFile(t *testing.T) {
	got := EnumerateReference()
	if tot := got.Total(); tot != refTotal {
		t.Fatalf("enumerated %d configurations, want 16!/(4!)^4 = %d", tot, refTotal)
	}
	file, err := ReadSpectrum(strings.NewReader(referenceText))
	if err != nil {
		t.Fatal(err)
	}
	if len(file.E) != len(got.E) {
		t.Fatalf("reference file has %d energies, enumerator %d", len(file.E), len(got.E))
	}
	for i := range got.E {
		if file.E[i] != got.E[i] || file.Count[i] != got.Count[i] {
			t.Fatalf("energy %d: file %d×%d, enumerator %d×%d", i, file.E[i], file.Count[i], got.E[i], got.Count[i])
		}
	}
}

// TestReferenceMatchesProgram: the benchmark's own enumeration agrees
// count for count with the program's dos.EnumerateFixedComposition on the
// same cell and Hamiltonian.
func TestReferenceMatchesProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates 63,063,000 configurations through the program")
	}
	lat := lattice.MustNew(lattice.BCC, 2, 2, 2)
	prog, err := dos.EnumerateFixedComposition(alloy.NbMoTaW(lat), []int{4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReadSpectrum(strings.NewReader(referenceText))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.E) != len(ref.E) {
		t.Fatalf("program finds %d distinct energies, reference %d", len(prog.E), len(ref.E))
	}
	for i := range ref.E {
		if math.Abs(prog.E[i]-ref.EnergyEV(i)) > 1e-7 || prog.Count[i] != float64(ref.Count[i]) {
			t.Fatalf("energy %d: program %.6f eV × %g, reference %.6f eV × %d",
				i, prog.E[i], prog.Count[i], ref.EnergyEV(i), ref.Count[i])
		}
	}
}

// TestSolveGrid: the benchmark's grid holds every state, puts no energy
// on a bin edge, and has the ground state in bin 0.
func TestSolveGrid(t *testing.T) {
	ref, err := ReadSpectrum(strings.NewReader(referenceText))
	if err != nil {
		t.Fatal(err)
	}
	g, err := solveGrid(ref)
	if err != nil {
		t.Fatal(err)
	}
	if b := g.bin(ref.EnergyEV(0)); b != 0 {
		t.Fatalf("ground state in bin %d", b)
	}
}
