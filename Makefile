# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint lint-json invariants check check-full fuzz cover mutate bench-harness loadtest fleettest updatetest scale-smoke querytest tools examples experiments clean

all: build vet test

# What CI's check, lint and invariants jobs run: vet, the formatting
# gate (gofmt lists no file), build, the project analyzers, the full
# test suite under the race detector (the RPC fault-handling tests are
# concurrency-heavy) and again with coverage — apart, because -race
# forces -covermode=atomic and that pair runs internal/label past the
# 10-minute test timeout — the cluster fault tests twenty times under
# -race as a determinism gate (their backoffs run on the fake clock,
# so this takes seconds), the serving-cost and build-cost goldens once
# more without either, because both skip their allocation rows, the six example programs
# (nothing else executes them), the fuzz targets, one iteration each of
# the query kernel's, the CSR builder's, the labeler's and the pair
# cache's benchmarks (so they cannot rot), and the suite again with
# runtime invariants compiled in.
check:
	go vet ./...
	test -z "$$(gofmt -l .)"
	go build ./...
	go run ./cmd/drlint ./...
	go test -race ./...
	go test -cover ./...
	go test -race -count=20 -run 'Fault|Retry|Recover|Checkpoint|Timeout' ./internal/pregel ./internal/drl
	go test ./internal/fleet -run TestServingCostGolden
	go test . -run TestBuildCostGolden
	$(MAKE) examples
	$(MAKE) fuzz
	go test ./internal/label -run '^$$' -bench Reachable -benchtime 1x
	go test ./internal/graph -run '^$$' -bench FromEdges -benchtime 1x
	go test ./internal/drl -run '^$$' -bench BuildBatch -benchtime 1x
	go test ./internal/qcache -run '^$$' -bench Cache -benchtime 1x
	go test -tags=invariants ./...

# The fuzz targets, with their budgets (make check and CI's check job
# both run this): 15 s on the index-file decoder and 10 s on its
# label-block bit reader alone, 10 s on the query kernel over the
# two-tier label layout, and 10 s each on the decoders of what other
# processes send the labeler (broadcast blobs and collect replies;
# checkpoints), of what a crash leaves in the edge log (WAL frames) and
# of the join stream a replica sends the router.
fuzz:
	go test ./internal/label -run '^$$' -fuzz FuzzRead -fuzztime 15s
	go test ./internal/label -run '^$$' -fuzz FuzzLabelBlock -fuzztime 10s
	go test ./internal/label -run '^$$' -fuzz FuzzTierKernel -fuzztime 10s
	go test ./internal/drl -run '^$$' -fuzz FuzzBlobDecodeArbitrary -fuzztime 10s
	go test ./internal/drl -run '^$$' -fuzz FuzzSnapshotDecodeArbitrary -fuzztime 10s
	go test ./internal/wal -run '^$$' -fuzz FuzzWALDecodeArbitrary -fuzztime 10s
	go test ./internal/httpapi -run '^$$' -fuzz FuzzReadJoin -fuzztime 10s

# check plus the end-to-end serving smoke — slower, optional locally;
# CI's serve-smoke job runs it beside querytest and scale-smoke.
check-full: check loadtest

build:
	go build ./...

vet:
	go vet ./...

# Project-specific analyzers (internal/lint): the determinism suite
# (mapdet, lockheld, errsink) plus the serving-tier concurrency suite
# (tornload, goleak, wgmisuse). `go vet` runs first: its copylocks is
# the only gate on a copied mutex. drlint is the gate for the rest,
# with the //lint:ignore waiver discipline.
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

# The mutation driver (internal/lint/mutate_test.go) over PKGS, a
# comma-separated list of module-relative directories or .go files:
# one row per mutant — killed, survived or uncompilable. Not part of
# check or CI; results/mutants.txt holds the last table and each
# survivor's verdict.
mutate:
	go test ./internal/lint -run TestMutate -count=1 -timeout 0 -v -args -mutate=$(PKGS)

# The benchmark harness is a module of its own (benchmark/go.mod with
# `replace repro => ../`), so `go test ./...` from the root never
# compiles it: an API break against what it imports (ROADMAP.md's
# house rules list every name, from tol.Build to qcache, wal.Open,
# ServeOptions and fleet) would otherwise show up only when the
# benchmark is next run. Root `go vet ./...` never reaches it either.
# Its vet, its unit tests, then its 2,000-vertex smoke over all four
# workloads (CI's bench-harness job).
bench-harness:
	cd benchmark && go vet ./...
	cd benchmark && go test ./...
	bash benchmark/run.sh -smoke

# End-to-end serving smoke: drgen -> drlabel -> drserve under a drload
# burst with answer verification and a graceful-shutdown check; a
# budgeted index (drlabel -budget 8) served from its file and graph and
# checked against the full one, with the wrong-graph and no-graph
# refusals at open; then a cluster build (drcluster -spawn 3 -flaky 3
# -checkpoint 2) whose file must be drlabel's byte for byte and open in
# drquery, drserve and drload (CI's serve-smoke job).
loadtest:
	./scripts/serve_smoke.sh

# End-to-end fleet smoke: 3 drserve replicas behind drrouter —
# verified drload bursts, refusal spot checks through
# the router (400 for an out-of-range batch pair and for t=notanumber,
# 405 for GET /reach/batch, as at a replica), kill -9 + readmission,
# fleet-wide zero-downtime reload with an epoch check on every
# replica, reload-under-load, drain/readmit, graceful shutdown (CI's
# fleet-smoke job). Exits nonzero on any failed request or wrong
# answer.
fleettest:
	./scripts/fleet_smoke.sh

# End-to-end scale-path smoke: generate a ~1.2M-edge graph streamed
# and in-RAM (binary v2 files byte-identical via cmp), label it from a
# copy load and an mmap load (index files byte-identical via cmp).
# CI's serve-smoke job. No timings gated.
scale-smoke:
	./scripts/scale_smoke.sh

# End-to-end rich-query smoke: drserve with witness paths enabled
# (-idx + -graph), verified drload bursts at /reach/path, /reach/count,
# and /reach/join, curl spot checks of the refusal paths, and a
# cap-sized join abandoned through a drrouter — the replica must count
# it cancelled and the router charge nobody (CI's serve-smoke job).
querytest:
	./scripts/query_smoke.sh

# The update path, in process and out. First the copy-on-write tests
# under the race detector — published epochs immutable beside 1,200
# later writes and across folds, snapshots equal to fresh builds, the
# epoch history ring, the tick-driven soak, rich queries on a patched
# epoch, the edge log's group commit and its refusal to write on after
# a failed write, and the crash enumerations of the log and of
# durable.WriteFile (every prefix of their file operations). Then the
# end-to-end smoke: drserve in update mode
# (-graph/-wal) — POST /edges point checks with epoch-acknowledged
# reads, a drload burst with concurrent writers, kill -9 + WAL replay
# (restarting from the graph's binary file: both formats open)
# verifying no acked write is lost, a restart refused on a log with one
# early acked record damaged and accepted once it is restored, and a
# graceful-shutdown check (CI's fleet-smoke job).
updatetest:
	go test -race -run 'Snapshots|PublishedEpochs|EpochHistory|UpdateQuerySoak|RichEndpointsMatchOracle|InsertDeleteLeavesNoOverlay|RepairAllocs|RebuildGuards|PatchedMatchesFold|OverlayAgainstModel|ConcurrentAppends|FailedWritePoisonsLog|CrashPoints' \
		. ./internal/tol ./internal/label ./internal/graph ./internal/wal ./internal/durable
	./scripts/update_smoke.sh

tools:
	go build -o bin/ ./cmd/...

examples:
	@for ex in examples/*/; do echo "== $$ex"; go run ./$$ex || exit 1; done

# Regenerates every table/figure (see results/runall.sh for the exact
# configuration used in EXPERIMENTS.md).
experiments: tools
	bash results/runall.sh

clean:
	rm -rf bin drlint.json
