#!/bin/sh
# End-to-end serving smoke (make loadtest, CI serve-smoke job):
# generate a graph, build its index, start drserve, fire drload bursts
# with every answer verified against the index, check graceful
# shutdown. drload exits nonzero on any failed request or wrong answer,
# and drserve's /metrics must have timed every batch request it counted.
# Then the same for an index a cluster built: three spawned drworker
# processes, one of them killed mid-run, must write the very file
# drlabel writes, and drquery, drserve and drload must open it; its
# trace must hold the recovery drcluster reports, and its output the
# build's phase line; a
# cluster build that is refused or interrupted by SIGINT must exit
# non-zero and leave no drworker running. In
# between, a size-restricted index: drlabel -budget writes it, drserve
# serves it from the file and the graph with every answer checked
# against the full index, and an index opened with the wrong graph, a
# budgeted one with none, or a file of the retired format is refused at
# start.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18321

# refused WHAT CMD... -> CMD must exit non-zero with WHAT on stderr
refused() {
	what="$1"
	shift
	if "$@" >/dev/null 2>"$work/refusal"; then
		echo "not refused: $*" >&2
		exit 1
	fi
	grep -q "$what" "$work/refusal" ||
		{ echo "refused for another reason: $*" >&2; cat "$work/refusal" >&2; exit 1; }
}

# no_workers AFTER -> no drworker this script built may still run
no_workers() {
	if pgrep -f "$work/bin/drworker" >/dev/null; then
		pkill -9 -f "$work/bin/drworker" || true
		echo "drworker processes left running after $1" >&2
		exit 1
	fi
}

build_tools drgen drlabel drserve drload drquery drcluster drworker
make_fixture

echo "== start drserve"
"$work/bin/drserve" -idx "$work/graph.idx" -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve

echo "== drload burst: single queries, verified against the index"
"$work/bin/drload" -addr "$addr" -clients 4 -requests 2000 -batch 1 -verify-idx "$work/graph.idx" -seed 3

echo "== drload burst: batch queries, verified against the index"
"$work/bin/drload" -addr "$addr" -clients 4 -requests 500 -batch 16 -verify-idx "$work/graph.idx" -seed 4
timed_once "$addr" reachlab batch

echo "== graceful shutdown on SIGTERM"
stop_ok "$srv_pid" drserve
pids=""

echo "== budgeted index: drlabel -budget 8, served from its file and the graph"
# A citation graph: acyclic, so its lists are long enough for the cap to bite.
"$work/bin/drgen" -family citation -n 20000 -deg 4 -seed 7 -o "$work/cit.bin"
"$work/bin/drlabel" -i "$work/cit.bin" -o "$work/full.idx" -method drl-shared
"$work/bin/drlabel" -i "$work/cit.bin" -o "$work/b.idx" -budget 8
"$work/bin/drserve" -idx "$work/b.idx" -graph "$work/cit.bin" -mmap -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve
"$work/bin/drgen" -family citation -n 20000 -deg 4 -seed 8 -o "$work/other.bin"
"$work/bin/drload" -addr "$addr" -clients 4 -requests 500 -batch 16 -verify-idx "$work/full.idx" -seed 6
"$work/bin/drload" -addr "$addr" -mode path -clients 4 -requests 300 -verify-idx "$work/full.idx" -verify-graph "$work/cit.bin" -seed 7
refused "wrong graph" "$work/bin/drload" -addr "$addr" -mode path -requests 10 -verify-idx "$work/full.idx" -verify-graph "$work/other.bin"
# The format before this one, of which the 32-byte header is enough: the
# magic "DRLINDX3" as a little-endian word, then n, parts, nIn, nOut of zero.
printf '3XDNILRD\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0' >"$work/v3.idx"
refused "rebuild the index" "$work/bin/drload" -addr "$addr" -requests 10 -verify-idx "$work/v3.idx"
stats="$(curl -sf "http://$addr/stats")"
echo "$stats" | grep -q '"label_budget":8,' ||
	{ echo "/stats does not report label_budget 8: $stats" >&2; exit 1; }
echo "$stats" | grep -q '"overflowed_in":[1-9]' && echo "$stats" | grep -q '"overflowed_out":[1-9]' ||
	{ echo "/stats reports no overflowed lists, so no query fell back to the graph: $stats" >&2; exit 1; }
stop_ok "$srv_pid" drserve
pids=""

echo "== refused at open: a budgeted index without its graph, any index with another graph"
refused "needs its graph" "$work/bin/drserve" -idx "$work/b.idx" -listen "$addr"
refused "wrong graph" "$work/bin/drserve" -idx "$work/b.idx" -graph "$work/other.bin" -listen "$addr"
refused "wrong graph" "$work/bin/drserve" -idx "$work/full.idx" -graph "$work/other.bin" -listen "$addr"
refused "wrong graph" "$work/bin/drquery" -idx "$work/full.idx" -graph "$work/other.bin" -path 0 1

echo "== refused at open: a file of the format before this one"
refused "rebuild the index" "$work/bin/drserve" -idx "$work/v3.idx" -listen "$addr"
refused "rebuild the index" "$work/bin/drquery" -idx "$work/v3.idx" -bench 1

echo "== cluster build: 3 spawned workers, the first crashing after 3 supersteps"
"$work/bin/drgen" -family web -n 5000 -deg 4 -seed 11 -o "$work/small.bin"
"$work/bin/drlabel" -i "$work/small.bin" -o "$work/label.idx" -method drl-batch
"$work/bin/drcluster" -i "$work/small.bin" -o "$work/cluster.idx" -spawn 3 -flaky 3 -checkpoint 2 -trace "$work/cluster.trace" >"$work/cluster.log"
cat "$work/cluster.log"
recovered=$(sed -n 's/^fault handling: .* \([0-9][0-9]*\) recoveries.*/\1/p' "$work/cluster.log")
[ "${recovered:-0}" -gt 0 ] || { echo "the crashed worker was never recovered" >&2; exit 1; }
traced=$(grep -o '"recoveries": [0-9]*' "$work/cluster.trace" | awk '{ n += $2 } END { print n + 0 }')
[ "$traced" -eq "$recovered" ] ||
	{ echo "the trace records $traced recoveries, drcluster printed $recovered" >&2; exit 1; }
grep -q '^phases: .*compute' "$work/cluster.log" || { echo "drcluster printed no phase line" >&2; exit 1; }
cmp "$work/label.idx" "$work/cluster.idx" ||
	{ echo "drcluster wrote a different index file than drlabel -method drl-batch" >&2; exit 1; }
no_workers "the cluster build"

echo "== cluster exits: a refused method and a SIGINT mid-build stop the spawned workers"
refused "does not support cluster deployment" "$work/bin/drcluster" -i "$work/small.bin" -o "$work/tol.idx" -spawn 2 -method tol
no_workers "a refused method"
"$work/bin/drgen" -family citation -n 200000 -deg 4 -seed 1 -o "$work/big.bin"
"$work/bin/drcluster" -i "$work/big.bin" -o "$work/big.idx" -spawn 2 2>"$work/sigint.log" &
cl_pid=$!
pids="$cl_pid"
i=0
until [ "$(pgrep -f "$work/bin/drworker" | wc -l)" -ge 2 ]; do
	i=$((i + 1))
	[ "$i" -gt 200 ] && { echo "drcluster never spawned its 2 workers" >&2; exit 1; }
	sleep 0.1
done
kill -INT "$cl_pid"
rc=0
wait "$cl_pid" || rc=$?
pids=""
[ "$rc" -ne 0 ] || { echo "drcluster exited 0 on SIGINT" >&2; exit 1; }
grep -q "context canceled" "$work/sigint.log" ||
	{ echo "drcluster on SIGINT did not report a cancelled build:" >&2; cat "$work/sigint.log" >&2; exit 1; }
no_workers "SIGINT"

echo "== the cluster's index in drquery, drserve and drload"
"$work/bin/drquery" -idx "$work/cluster.idx" -bench 1000
"$work/bin/drserve" -idx "$work/cluster.idx" -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve
"$work/bin/drload" -addr "$addr" -clients 4 -requests 500 -batch 16 -verify-idx "$work/cluster.idx" -seed 5
stop_ok "$srv_pid" drserve
pids=""

echo "serve smoke: OK"
