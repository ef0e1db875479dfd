#!/bin/sh
# End-to-end rich-query smoke (make querytest, CI serve-smoke job):
# generate a graph, build its index, start drserve with the graph
# attached (witness paths enabled), spot-check the HTTP surface and
# its refusals with curl, then fire verified drload bursts at all
# three rich endpoints — /reach/path, /reach/count, /reach/join — and
# abandon a cap-sized join through a drrouter to watch the cancel path
# reach the replica.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18521
router=127.0.0.1:18520

build_tools drgen drlabel drserve drrouter drload
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

echo "== abandoned join through drrouter: the replica stops, nobody is charged"
"$work/bin/drrouter" -replicas "$addr" -listen "$router" -grace 5s &
router_pid=$!
pids="$srv_pid $router_pid"
wait_http "http://$router/reach?s=0&t=0" drrouter
# 1024 × 1024 is exactly the default cross-product cap: about half a
# second of sweeping and streaming here, given up on after 50 ms.
printf '{"sources":[%s],"targets":[%s]}' "$(seq -s, 0 1023)" "$(seq -s, 1024 2047)" >"$work/join.json"
rc=0
curl -s --max-time 0.05 -o /dev/null -X POST -d @"$work/join.json" "http://$router/reach/join" || rc=$?
[ "$rc" = "28" ] || { echo "the cap-sized join was not abandoned (curl exit $rc, want 28)" >&2; exit 1; }
i=0
until curl -sf "http://$addr/metrics" | grep -q '^reachlab_http_canceled_total{handler="join"} [1-9]'; do
	i=$((i + 1))
	[ "$i" -gt 50 ] && { echo "the replica never counted the abandoned join as cancelled" >&2; exit 1; }
	sleep 0.1
done
curl -sf "http://$router/stats" | grep -q '"errors":0' ||
	{ echo "router charged the replica for a client's hang-up: $(curl -s "http://$router/stats")" >&2; exit 1; }
curl -sf "http://$router/reach?s=0&t=0" | grep -q '"reachable":true' ||
	{ echo "reach(0,0) through the router after the abandoned join" >&2; exit 1; }

echo "== graceful shutdown on SIGTERM"
stop_ok "$router_pid" drrouter
stop_ok "$srv_pid" drserve
pids=""

echo "query smoke: OK"
