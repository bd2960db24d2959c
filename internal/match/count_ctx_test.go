package match

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// TestCtxVariantsMatchPlain: under a live context the kernels must be
// bit-identical to their uncancellable runs and to the reference.
func TestCtxVariantsMatchPlain(t *testing.T) {
	g := graph.BuildLinkGraph(300, 5, 3)
	d := darpe.MustCompile("LinkTo>*1..4")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := graph.VID(0)

	want := countASPReference(g, d, src)
	got, err := CountASPCtx(ctx, g, d, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("CountASPCtx diverges from countASPReference")
	}

	wantAll, err := countAll(context.Background(), g, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, err := countAll(ctx, g, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantAll, gotAll) {
		t.Error("serial countAll under a live context diverges")
	}

	gotPar, err := countAll(ctx, g, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantAll, gotPar) {
		t.Error("parallel countAll under a live context diverges")
	}

	wantEx := countASPReference(g, d, src)
	Existsify(wantEx)
	gotEx, err := CountExists(g, d, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantEx, gotEx) {
		t.Error("CountExists diverges from the existsified reference")
	}
}

// TestCtxCancelledStopsKernels: a dead context aborts every kernel
// with a context-wrapping error instead of running to completion.
func TestCtxCancelledStopsKernels(t *testing.T) {
	g := graph.BuildLinkGraph(2000, 8, 3)
	d := darpe.MustCompile("LinkTo>*")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := CountASPCtx(ctx, g, d, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("CountASPCtx err = %v, want context.Canceled", err)
	}
	if _, err := countAll(ctx, g, d, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("serial countAll err = %v, want context.Canceled", err)
	}
	if _, err := countAll(ctx, g, d, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel countAll err = %v, want context.Canceled", err)
	}
	if _, err := CountEnumCtx(ctx, g, d, 0, NonRepeatedEdge, EnumLimits{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CountEnumCtx err = %v, want context.Canceled", err)
	}
}

// TestCtxDeadlineMidFlight: a deadline landing mid-sweep stops an
// all-sources SourceCounter loop promptly.
func TestCtxDeadlineMidFlight(t *testing.T) {
	g := graph.BuildLinkGraph(3000, 8, 9)
	d := darpe.MustCompile("LinkTo>*")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := countAll(ctx, g, d, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; cancellation checkpoints not firing", elapsed)
	}
}
