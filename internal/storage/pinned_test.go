package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
)

// TestSnapshotBytesPinned pins the on-disk formats to fixed digests: the
// snapshot of a generated LDBC graph, and the WAL a fixed mutation
// stream appends to a store over a smaller one. Any change to the bytes
// either codec writes — an in-memory value layout leaking into the
// encoding, a reordered field, a new version — fails here, so a format
// change has to be deliberate and come with new digests.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantSnap = "1068b2add2349daba26fbd31c83c8b377005f0161a03a31f24c159b79a8b59f6"
		snapLen  = 625603
		wantWAL  = "0f82d8284a593a35f013294596b216c9fca5981f664572d1916d69d5bc611128"
	)
	snap, err := EncodeSnapshot(ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(snap); got != wantSnap || len(snap) != snapLen {
		t.Errorf("snapshot of SF 0.3 seed 7: sha256 %s (%d B), want %s (%d B)", got, len(snap), wantSnap, snapLen)
	}

	dir := t.TempDir()
	cfg := ldbc.Config{SF: 0.1, Seed: 7}
	s, err := Open(dir, Options{Init: func() (*graph.Graph, error) { return ldbc.Generate(cfg), nil }})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ldbc.Mutations(cfg, 100, 11, "pin") {
		if err := ldbc.Apply(s.Graph(), m); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(wal); got != wantWAL {
		t.Errorf("WAL of 100 mutations: sha256 %s (%d B), want %s", got, len(wal), wantWAL)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
