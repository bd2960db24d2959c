package load

import (
	"reflect"
	"sort"
	"testing"

	"gsqlgo/internal/ldbc"
)

var testCfg = ldbc.Config{SF: 0.1, Seed: 7}

func mustWorkload(t *testing.T, seed int64, queries []string) *Workload {
	t.Helper()
	w, err := NewWorkload(testCfg, seed, 2, queries, "wl")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadIsPure pins the op stream as a pure function of (config,
// seed, hops, prefix, index): two workloads built alike issue the same
// reads and writes, and the write stream is exactly the ldbc one.
func TestWorkloadIsPure(t *testing.T) {
	a, b := mustWorkload(t, 11, nil), mustWorkload(t, 11, nil)
	muts := ldbc.NewMutGen(testCfg, 11, "wl")
	for i := uint64(0); i < 1000; i++ {
		an, ap := a.Read(i)
		bn, bp := b.Read(i)
		if an != bn || !reflect.DeepEqual(ap, bp) {
			t.Fatalf("Read(%d): %s %v vs %s %v", i, an, ap, bn, bp)
		}
		if aw, bw := a.Write(i), b.Write(i); !reflect.DeepEqual(aw, bw) {
			t.Fatalf("Write(%d): %+v vs %+v", i, aw, bw)
		}
		if got, want := a.Write(i), muts.At(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("Write(%d) = %+v, want the ldbc stream's %+v", i, got, want)
		}
	}
}

func TestWorkloadSeedChangesReads(t *testing.T) {
	a, b := mustWorkload(t, 11, nil), mustWorkload(t, 12, nil)
	for i := uint64(0); i < 100; i++ {
		_, ap := a.Read(i)
		_, bp := b.Read(i)
		if !reflect.DeepEqual(ap, bp) {
			return
		}
	}
	t.Fatal("seeds 11 and 12 drew identical params for 100 reads")
}

func TestWorkloadInstallSources(t *testing.T) {
	src := mustWorkload(t, 11, nil).InstallSources()
	var got []string
	for name, body := range src {
		if body == "" {
			t.Errorf("%s: empty source", name)
		}
		got = append(got, name)
	}
	var want []string
	for _, q := range []string{"ic3", "ic5", "ic6", "ic9", "ic11"} {
		want = append(want, ldbc.ICName(q, 2))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("InstallSources keys = %v, want %v", got, want)
	}
}

func TestWorkloadUnknownQuery(t *testing.T) {
	if _, err := NewWorkload(testCfg, 11, 2, []string{"ic5", "ic99"}, "wl"); err == nil {
		t.Fatal("unknown query name accepted")
	}
}
