#!/bin/sh
# End-to-end serving smoke (make loadtest, CI serve-smoke job):
# generate a graph, build its index, start drserve, fire drload bursts
# with every answer verified against the index, check graceful
# shutdown. drload exits nonzero on any failed request or wrong answer.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18321

build_tools drgen drlabel drserve drload
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

echo "serve smoke: OK"
