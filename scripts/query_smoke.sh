#!/bin/sh
# End-to-end rich-query smoke (make querytest, CI serve-smoke job):
# generate a graph, build its index, start drserve with the graph
# attached (witness paths enabled), spot-check the HTTP surface and
# its refusals with curl, then fire verified drload bursts at all
# three rich endpoints — /reach/path, /reach/count, /reach/join.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18521

build_tools drgen drlabel drserve drload
make_fixture

echo "== start drserve with witness paths (-idx + -graph)"
"$work/bin/drserve" -idx "$work/graph.idx" -graph "$work/graph.bin" -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve

echo "== curl spot checks: shapes and refusals"
curl -sf "http://$addr/reach/path?s=0&t=0" | grep -q '"reachable":true' ||
	{ echo "path(0,0) should be reachable" >&2; exit 1; }
curl -sf "http://$addr/reach/count?s=0" | grep -q '"count":' ||
	{ echo "count(0) missing count field" >&2; exit 1; }
printf '{"sources":[0,1],"targets":[2,3]}' |
	curl -sf -X POST -d @- "http://$addr/reach/join" | tail -1 | grep -q '"done":true' ||
	{ echo "join stream missing done line" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/reach/path?s=0&t=notanumber")"
[ "$code" = "400" ] || { echo "bad path param answered $code, want 400" >&2; exit 1; }

echo "== drload burst: witness paths, bit + hops verified"
"$work/bin/drload" -mode path -addr "$addr" -clients 4 -requests 2000 \
	-verify-idx "$work/graph.idx" -verify-graph "$work/graph.bin" -seed 3

echo "== drload burst: set sizes, verified"
"$work/bin/drload" -mode count -addr "$addr" -clients 4 -requests 1000 \
	-verify-idx "$work/graph.idx" -seed 4

echo "== drload burst: streaming joins, exact result set verified"
"$work/bin/drload" -mode join -addr "$addr" -clients 4 -requests 200 -batch 16 \
	-verify-idx "$work/graph.idx" -seed 5

echo "== graceful shutdown on SIGTERM"
stop_ok "$srv_pid" drserve
pids=""

echo "query smoke: OK"
