# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint lint-json invariants check check-full cover bench bench-smoke bench-compare bench-harness loadtest load-compare fleettest updatetest update-compare scale-smoke querytest tools examples experiments clean

all: build vet test

# What CI runs: vet, build, the project analyzers (text + the JSON
# artifact the lint job archives), the full test suite under the race
# detector (the RPC fault-handling tests are concurrency-heavy), 15 s
# of fuzzing the index-file decoder, and the suite again with runtime
# invariants compiled in.
check:
	go vet ./...
	go build ./...
	go run ./cmd/drlint ./...
	$(MAKE) lint-json
	go test -race ./...
	go test ./internal/label -run '^$$' -fuzz FuzzRead -fuzztime 15s
	go test -tags=invariants ./...

# check plus the end-to-end serving smoke — slower, optional locally,
# what CI's serve-smoke job runs on top of check.
check-full: check loadtest

build:
	go build ./...

vet:
	go vet ./...

# Project-specific analyzers (internal/lint): the determinism suite
# (mapdet, lockheld, errsink, atomichygiene) plus the serving-tier
# concurrency suite (copylocks, tornload, goleak, wgmisuse, ackorder).
# `go vet` runs first as a stdlib cross-check (its copylocks overlaps
# ours); drlint remains the gate with the //lint:ignore waiver
# discipline.
lint:
	go vet ./...
	go run ./cmd/drlint ./...

# Machine-readable findings for CI artifact diffing: exits nonzero on
# any non-waived finding, leaving drlint.json behind either way.
lint-json:
	go run ./cmd/drlint -json ./... > drlint.json

# Full suite with the build-tagged runtime invariants compiled in.
invariants:
	go test -tags=invariants ./...

test:
	go test ./...

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem

# One-iteration benchmark pass — catches bit-rot in the bench harness
# without paying for real measurements (CI's bench-smoke job).
bench-smoke:
	go test -run=NONE -bench=Table6 -benchtime=1x .

# Diff two drbench -json records and fail on a regression of the
# deterministic wire-volume metrics (messages, bytes_remote). Defaults
# to the committed before/after pair of the wire-format v2 change;
# override OLD/NEW to gate a fresh run against the newest baseline, as
# CI's bench-smoke job does.
OLD ?= BENCH_table6-tiny-p8-1785921086.json
NEW ?= BENCH_table6-tiny-p8-1785925046.json
bench-compare:
	go run ./cmd/benchcompare $(OLD) $(NEW)

# The benchmark harness is a module of its own (benchmark/go.mod with
# `replace repro => ../`), so `go test ./...` from the root never
# compiles it: an API break against what it imports (tol.Build,
# tol.BuildBudgeted, drl.BuildBatch, label.Budgeted, label.Read,
# Index.Thaw/Freeze/WriteTo, the root package) would otherwise show up
# only when the benchmark is next run. Its unit tests, then its
# 2,000-vertex smoke over all four workloads (CI's bench-harness job).
bench-harness:
	cd benchmark && go test ./...
	bash benchmark/run.sh -smoke

# End-to-end serving smoke: drgen -> drlabel -> drserve under a drload
# burst with answer verification and a graceful-shutdown check, then
# the flat-vs-slice layout gate (CI's serve-smoke job).
loadtest:
	./scripts/serve_smoke.sh

# End-to-end fleet smoke: 3 drserve replicas behind drrouter in
# sharded mode — verified drload bursts, kill -9 + readmission,
# fleet-wide zero-downtime reload with an epoch check on every
# replica, reload-under-load, drain/readmit, graceful shutdown (CI's
# fleet-smoke job). Exits nonzero on any failed request or wrong
# answer.
fleettest:
	./scripts/fleet_smoke.sh

# End-to-end scale-path smoke: generate a ~1.2M-edge graph streamed
# and in-RAM (binary v2 files byte-identical via cmp), label it from a
# copy load and an mmap load (index files byte-identical via cmp),
# then run drbench -exp scale twice and gate every deterministic
# output with benchcompare (CI's scale-smoke job). No timings gated.
scale-smoke:
	./scripts/scale_smoke.sh

# End-to-end rich-query smoke: drserve with witness paths enabled
# (-idx + -graph), verified drload bursts at /reach/path, /reach/count,
# and /reach/join, curl spot checks of the refusal paths, then the
# deterministic query-workload record regenerated and gated exactly
# against the committed BENCH_query-citation-*.json baseline (CI's
# query-smoke job). No timings gated.
querytest:
	./scripts/query_smoke.sh

# End-to-end update smoke: drserve in update mode (-graph/-wal) —
# POST /edges point checks with epoch-acknowledged reads, a drload
# burst with concurrent writers, kill -9 + WAL replay verifying no
# acked write is lost, and a graceful-shutdown check (CI's
# update-smoke job).
updatetest:
	./scripts/update_smoke.sh

# Diff the committed static-serving baseline against the serve-while-
# updating record (drserve update mode under drload -writers): query
# p50 and QPS with the WAL refresher live may not regress more than
# -qtolerance relative to read-only serving. Override UPD_OLD/UPD_NEW
# for fresh runs.
UPD_OLD ?= BENCH_load-citation-serve1-1786166619.json
UPD_NEW ?= BENCH_update-citation-serve1-1786171084.json
update-compare:
	go run ./cmd/benchcompare -queries -qtolerance 0.10 $(UPD_OLD) $(UPD_NEW)

# Diff the committed flat-vs-slice serving records (drload -mode
# inproc on the citation graph, uniform traffic): the flat layout's
# query p50 and QPS may not regress past -qtolerance relative to the
# pre-flat slice baseline. Override LOAD_OLD/LOAD_NEW for fresh runs.
LOAD_OLD ?= BENCH_load-citation-uni-layout-slice-1785927060.json
LOAD_NEW ?= BENCH_load-citation-uni-layout-flat-1785927062.json
load-compare:
	go run ./cmd/benchcompare -queries $(LOAD_OLD) $(LOAD_NEW)

tools:
	go build -o bin/ ./cmd/...

examples:
	@for ex in examples/*/; do echo "== $$ex"; go run ./$$ex || exit 1; done

# Regenerates every table/figure (see results/runall.sh for the exact
# configuration used in EXPERIMENTS.md).
experiments: tools
	cd results && ./runall.sh

clean:
	rm -rf bin drlint.json
