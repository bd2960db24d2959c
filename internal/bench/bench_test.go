package bench

import (
	"strings"
	"testing"
	"time"
)

// The harness tests run each table generator with tiny parameters and
// check the output shape; the real regenerations live in the
// repository-root benchmarks and cmd/benchtables.

func TestTable1Small(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, Table1Config{MaxN: 8, CellTimeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "256") {
		t.Errorf("missing 2^8 path count:\n%s", out)
	}
	if !strings.Contains(out, "Full GSQL Q_8") {
		t.Errorf("missing engine measurement:\n%s", out)
	}
	if strings.Count(out, "\n") < 9 {
		t.Errorf("too few rows:\n%s", out)
	}
}

func TestSNBTableSmall(t *testing.T) {
	var sb strings.Builder
	err := SNBTable(&sb, SNBConfig{SFs: []float64{0.1}, Hops: []int{2}, Seed: 5, MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"all-shortest-paths", "non-repeated-edge", "ic3", "ic11"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestAppendixBSmall(t *testing.T) {
	var sb strings.Builder
	if err := AppendixB(&sb, AppendixBConfig{SFs: []float64{0.1}, Reps: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "x") {
		t.Errorf("missing speedup column:\n%s", out)
	}
}

func TestSDMCScalingSmall(t *testing.T) {
	var sb strings.Builder
	if err := SDMCScaling(&sb, []int{5, 70}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "saturated") {
		t.Errorf("n=70 must saturate:\n%s", out)
	}
}

func TestShortcutAblationSmall(t *testing.T) {
	var sb strings.Builder
	if err := ShortcutAblation(&sb, []int{3, 6}, time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "without shortcut") {
		t.Errorf("header missing:\n%s", sb.String())
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		1500 * time.Microsecond: "1.50ms",
		12 * time.Second:        "12.00s",
		90 * time.Second:        "1m30s",
		10 * time.Minute:        "10m00s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	// Zero-valued configs pick the documented defaults; exercised with
	// tiny overrides where defaults would be slow.
	var sb strings.Builder
	if err := ShortcutAblation(&sb, []int{2}, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n") {
		t.Error("ablation output empty")
	}
	sb.Reset()
	if err := SDMCScaling(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "60") {
		t.Error("SDMC default sizes missing n=60")
	}
}
