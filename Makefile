# Tier-1 verification and day-to-day developer targets.

.PHONY: all build check test bench bench-check scale-check fault-check eval serve-demo fmt clean

all: build

DEMO_DIR := _demo

# Tier-1: the gate every change must pass, plus an end-to-end
# ingest -> index -> fsck smoke check over a small demo corpus.
check:
	dune build
	dune runtest
	rm -rf $(DEMO_DIR)
	dune exec bin/cbi.exe -- ingest mossim -o $(DEMO_DIR)/log --quick --domains 2
	dune exec bin/cbi.exe -- index $(DEMO_DIR)/log -o $(DEMO_DIR)/idx
	dune exec bin/cbi.exe -- fsck $(DEMO_DIR)/idx
	$(MAKE) fault-check
	$(MAKE) eval

# Ground-truth SBFL evaluation harness: rank every registered formula
# against the five corpus programs' per-run bug occurrence (rank of
# first true bug, top-1/5/10 hit rates, mean EXAM; see docs/sbfl.md).
eval:
	dune exec bin/cbi.exe -- eval --quick

# Crash-recovery gate: kill-and-reopen the log -> index pipeline at every
# seeded fault point (torn writes, failed fsyncs, disk-full, bit flips,
# short reads) and verify no acked report is lost and no partial record
# is surfaced (see docs/robustness.md).
fault-check:
	dune exec bin/cbi.exe -- fault-check

build:
	dune build @all

test:
	dune runtest

# Prints every regenerated table and writes BENCH_core.json
# (see docs/ingest.md and docs/perf.md for the schema; SBI_BENCH_RUNS
# scales the per-study workload, SBI_BENCH_INDEX_RUNS the synthetic corpus).
bench:
	dune exec bench/main.exe

# Fails (exit 1) if the observability layer adds more than 2% overhead
# on instrumented hot paths (--obs-check; see docs/observability.md), if
# ranking through the SBFL formula registry costs more than 2% over the
# hard-coded importance path (--sbfl-check; see docs/sbfl.md), if
# batched group-commit ingest does not beat the single-report RPC path
# by >= 10x at fsync=true (--ingest-check; see docs/serve.md), if the
# event-loop front end fails the connection-scale gate (--conn-check:
# 1000 concurrent connections, zero dropped accepts or overload
# rejections, batched throughput within 15% of a single connection; see
# docs/serve.md), or if the million-run tiered store misses its gate
# (scale-check, below).  Rankings' bit-identity with the reference
# analysis is checked by the property tests under `dune runtest`.
bench-check:
	dune exec bench/main.exe -- --obs-check
	dune exec bench/main.exe -- --sbfl-check
	dune exec bench/main.exe -- --ingest-check
	dune exec bench/main.exe -- --conn-check
	$(MAKE) scale-check

# Million-run gate over the tiered store (see docs/storage.md): streams
# SBI_SCALE_RUNS synthetic runs (default 1M) through gen -> build ->
# compact and fails (exit 1) unless the warm top-k stays under
# SBI_SCALE_BUDGET_MS (default 10 ms) before and after compaction,
# compaction shrinks the segment count and live bytes, rankings are
# bit-identical across it, and fsck comes back clean.
scale-check:
	dune exec bench/main.exe -- --scale-check

# Build a small demo log + index and start a triage server on it.
# Query it from another terminal, e.g.:
#   dune exec bin/cbi.exe -- query 127.0.0.1:7077 topk 5
serve-demo:
	rm -rf $(DEMO_DIR)
	dune exec bin/cbi.exe -- ingest mossim -o $(DEMO_DIR)/log --quick --domains 2
	dune exec bin/cbi.exe -- index $(DEMO_DIR)/log -o $(DEMO_DIR)/idx
	dune exec bin/cbi.exe -- serve $(DEMO_DIR)/idx -a 127.0.0.1:7077

# Formats dune files in place. ocamlformat is not in the build image, so
# dune-project enables @fmt for dune files only.
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
	rm -rf $(DEMO_DIR) BENCH_core.json
