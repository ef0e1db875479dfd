#!/bin/sh
# End-to-end serving smoke (make loadtest, CI serve-smoke job):
# generate a graph, build its index, start drserve, fire drload bursts
# with every answer verified against the index, check graceful
# shutdown. drload exits nonzero on any failed request or wrong answer.
# Then the same for an index a cluster built: three spawned drworker
# processes, one of them killed mid-run, must write the very file
# drlabel writes, and drquery, drserve and drload must open it.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18321

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

echo "== graceful shutdown on SIGTERM"
stop_ok "$srv_pid" drserve
pids=""

echo "== cluster build: 3 spawned workers, the first crashing after 3 supersteps"
"$work/bin/drgen" -family web -n 5000 -deg 4 -seed 11 -o "$work/small.bin"
"$work/bin/drlabel" -i "$work/small.bin" -o "$work/label.idx" -method drl-batch
"$work/bin/drcluster" -i "$work/small.bin" -o "$work/cluster.idx" -spawn 3 -flaky 3 -checkpoint 2 >"$work/cluster.log"
cat "$work/cluster.log"
grep -Eq 'fault handling: .* [1-9][0-9]* recoveries' "$work/cluster.log" ||
	{ echo "the crashed worker was never recovered" >&2; exit 1; }
cmp "$work/label.idx" "$work/cluster.idx" ||
	{ echo "drcluster wrote a different index file than drlabel -method drl-batch" >&2; exit 1; }

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
