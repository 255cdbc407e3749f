package sim

// Internal tests for unexported machinery. The functional scheme tests
// live in schemes_test.go (package sim_test) on top of the shared
// workload builders in internal/simtest; the cross-scheme differential
// oracle is in internal/simtest.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cobra/internal/core"
)

func TestAllocDisjointPages(t *testing.T) {
	m := NewMach(DefaultArch())
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Fatal("regions not page-aligned")
	}
	if b.Base < a.Base+100 {
		t.Fatal("regions overlap")
	}
}

func TestRegroupBins(t *testing.T) {
	bins := make([][]core.Tuple, 10)
	total := 0
	for i := range bins {
		for j := 0; j <= i; j++ {
			bins[i] = append(bins[i], core.Tuple{Key: uint32(i)})
			total++
		}
	}
	out := regroupBins(bins, 3)
	if len(out) > 3 {
		t.Fatalf("regrouped into %d bins, want <= 3", len(out))
	}
	n := 0
	for _, b := range out {
		n += len(b)
	}
	if n != total {
		t.Fatalf("regrouping lost tuples: %d vs %d", n, total)
	}
}

func TestPhaseMemHelpers(t *testing.T) {
	a := PhaseMem{L1Misses: 1, DRAMReadLines: 2, DRAMWriteLines: 3}
	b := PhaseMem{L1Misses: 10, DRAMReadLines: 20, DRAMWriteLines: 30}
	s := a.Sum(b)
	if s.L1Misses != 11 || s.DRAMReadLines != 22 {
		t.Fatalf("Sum = %+v", s)
	}
	if a.DRAMBytes() != (2+3)*64 {
		t.Fatalf("DRAMBytes = %d", a.DRAMBytes())
	}
	if d := b.sub(a); d.L1Misses != 9 {
		t.Fatalf("sub = %+v", d)
	}
}

func TestSpeedupZeroSafe(t *testing.T) {
	var m Metrics
	if m.Speedup(Metrics{Cycles: 100}) != 0 {
		t.Fatal("zero-cycle speedup should be 0")
	}
}

func TestSchemeScopeNames(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeBaseline: "sim.baseline",
		SchemePBSW:     "sim.pbsw",
		SchemePBIdeal:  "sim.pbideal",
		SchemeCOBRA:    "sim.cobra",
		SchemeComm:     "sim.cobracomm",
		SchemePHI:      "sim.phi",
		Scheme("??"):   "sim.other",
	} {
		if got := schemeScope(s); got != want {
			t.Fatalf("schemeScope(%s) = %s, want %s", s, got, want)
		}
	}
}

// TestRunShardsCapturesPanics: a panicking shard becomes that core's
// error — also the last shard, which runs on the caller's goroutine —
// every other shard still runs, and the lowest failing core wins.
func TestRunShardsCapturesPanics(t *testing.T) {
	for _, n := range []int{1, 4} {
		var ran atomic.Int32
		err := runShards(n, func(c int) error {
			ran.Add(1)
			if c == n-1 {
				panic("boom")
			}
			return nil
		})
		if want := fmt.Sprintf("sim: core %d panicked: boom", n-1); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("n=%d: err = %v, want prefix %q", n, err, want)
		}
		if got := ran.Load(); got != int32(n) {
			t.Fatalf("n=%d: %d shards ran, want all %d", n, got, n)
		}
	}
	errLow := errors.New("core 1 failed")
	err := runShards(4, func(c int) error {
		switch c {
		case 1:
			return errLow
		case 3:
			panic("boom")
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest failing core's error", err)
	}
}
