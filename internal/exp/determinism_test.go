package exp

import (
	"bytes"
	"runtime"
	"testing"

	"cobra/internal/sim"
)

// renderFigure runs a figure driver and returns its rendered bytes —
// exactly what cmd/figures would print (minus the timing note it
// appends, which is inherently nondeterministic).
func renderFigure(t *testing.T, fn func(Opts) (*Table, error), o Opts) []byte {
	t.Helper()
	tab, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	return buf.Bytes()
}

// TestFig10DeterministicUnderParallelism is the tentpole's core
// regression: a figure built on the full worker pool must be
// byte-identical to the serial build. ResetMemos between runs forces
// the parallel run to regenerate inputs and suite results from scratch
// — otherwise the second run would trivially replay the first run's
// memoized cells and the comparison would prove nothing.
func TestFig10DeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression skipped in -short mode")
	}
	o := tinyOpts()

	o.Parallel = 1
	ResetMemos()
	serial := renderFigure(t, Fig10, o)

	o.Parallel = runtime.GOMAXPROCS(0)
	ResetMemos()
	parallel := renderFigure(t, Fig10, o)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Fig10 output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			o.Parallel, serial, parallel)
	}
}

// TestAblationDeterministicUnderParallelism covers the MapCells
// adoption in the ablation drivers with the cheapest table (A2: three
// independent policy cells).
func TestAblationDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression skipped in -short mode")
	}
	o := tinyOpts()

	o.Parallel = 1
	ResetMemos()
	serial := renderFigure(t, AblationLLCPolicy, o)

	o.Parallel = runtime.GOMAXPROCS(0)
	ResetMemos()
	parallel := renderFigure(t, AblationLLCPolicy, o)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("A2 output differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestBatchedPipelineOutputByteIdentical extends the byte-identity
// acceptance to the batched reference pipeline: Fig 10 and Table I
// rendered through the batched hot path must equal the scalar oracle's
// artifacts byte for byte (not approximately — the simulated cycle
// counts themselves must agree in every bit for the tables to match).
func TestBatchedPipelineOutputByteIdentical(t *testing.T) {
	batched := Opts{Scale: 12, Seed: 42, Arch: sim.DefaultArch()}
	scalar := batched
	scalar.Arch = scalar.Arch.WithScalarRefs()
	for _, fig := range []struct {
		name string
		fn   func(Opts) (*Table, error)
	}{{"10", Fig10}, {"t1", Table1}} {
		ResetMemos()
		a := renderFigure(t, fig.fn, batched)
		ResetMemos()
		b := renderFigure(t, fig.fn, scalar)
		if len(a) == 0 {
			t.Fatalf("fig %s: empty artifact", fig.name)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("fig %s: batched pipeline artifact differs from scalar oracle:\n--- batched ---\n%s\n--- scalar ---\n%s",
				fig.name, a, b)
		}
	}
}
