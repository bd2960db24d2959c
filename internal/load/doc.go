// Package load generates the LDBC-SNB-shaped op stream the benchmark
// drives against gsqld (see benchmark/README.md): installed IC-query
// reads and mutation-stream writes, each a pure function of its index.
package load
