#!/bin/sh
# End-to-end fleet smoke (make fleettest, CI fleet-smoke job): a
# 3-replica drserve fleet behind drrouter, hammered by
# drload with every answer verified against the index. The script
# walks the full operational story — healthy fleet, a replica's
# refusals (400, 405, a join over the cap's 413) relayed as its own,
# kill -9 of a replica with
# traffic still flowing, restart + automatic readmission,
# a fleet-wide zero-downtime index reload (epoch check on every
# replica), a reload-under-load burst, drain/readmit, and clean
# SIGTERM shutdown of everything. drload exits nonzero on any failed
# request or wrong answer, so a single dropped or stale query fails
# the smoke; the router's /metrics must have timed every batch request
# it counted, and its replicas must have served exactly as many: a
# batch is passed to one replica whole.
. "$(dirname "$0")/lib.sh"
router=127.0.0.1:19400
r1=127.0.0.1:19401
r2=127.0.0.1:19402
r3=127.0.0.1:19403

healthy_count() {
	curl -sf "http://$router/stats" | grep -o '"state":"up"' | wc -l
}

wait_healthy() { # wait_healthy n
	i=0
	until [ "$(healthy_count)" -eq "$1" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "fleet never reached $1 healthy replicas" >&2; curl -s "http://$router/stats" >&2; exit 1; }
		sleep 0.1
	done
}

# Backgrounds a replica in THIS shell (no command substitution — the
# daemon must stay our child so `wait` can collect its exit status)
# and leaves its pid in $!; stdio goes to a log so nothing holds a
# pipe open.
start_replica() { # start_replica addr
	"$work/bin/drserve" -idx "$work/graph.idx" -listen "$1" -grace 5s \
		>"$work/replica-${1##*:}.log" 2>&1 &
}

build_tools drgen drlabel drserve drrouter drload
make_fixture

echo "== start 3 replicas + router"
start_replica "$r1"; p1=$!; pids="$pids $p1"
start_replica "$r2"; p2=$!; pids="$pids $p2"
start_replica "$r3"; p3=$!; pids="$pids $p3"
wait_http "http://$r1/healthz" "replica 1"
wait_http "http://$r2/healthz" "replica 2"
wait_http "http://$r3/healthz" "replica 3"
"$work/bin/drrouter" -replicas "$r1,$r2,$r3" -listen "$router" \
	-grace 5s &
router_pid=$!
pids="$pids $router_pid"
wait_http "http://$router/healthz" "router"
wait_healthy 3

echo "== verified bursts through the router (single + batch)"
"$work/bin/drload" -addr "$router" -clients 4 -requests 2000 -batch 1 -verify-idx "$work/graph.idx" -seed 3
"$work/bin/drload" -addr "$router" -clients 4 -requests 500 -batch 16 -verify-idx "$work/graph.idx" -seed 4
timed_once "$router" fleet batch
forwarded_whole "$router" batch "$r1" "$r2" "$r3"

echo "== curl spot checks: a replica's refusals come back through the router as its own"
expect_code() { # expect_code WANT WHAT curl-args...
	want="$1"; what="$2"; shift 2
	code="$(curl -s -o /dev/null -w '%{http_code}' "$@")"
	[ "$code" = "$want" ] || { echo "$what answered $code, want $want" >&2; exit 1; }
}
expect_code 400 "out-of-range batch pair" -X POST -d '{"pairs":[[0,1],[0,99999999]]}' "http://$router/reach/batch"
expect_code 400 "t=notanumber" "http://$router/reach?s=0&t=notanumber"
expect_code 405 "GET /reach/batch" "http://$router/reach/batch"
# 1,025 sources × 1,024 targets scans more than the join cap, 2^20
# pairs: the router passes a join through whole, so it refuses it as a
# lone replica does.
join="{\"sources\":[$(seq -s, 0 1024)],\"targets\":[$(seq -s, 1 1024)]}"
expect_code 413 "a join over the cap at a replica" -X POST -d "$join" "http://$r1/reach/join"
expect_code 413 "a join over the cap through the router" -X POST -d "$join" "http://$router/reach/join"

echo "== verified burst against the replicas directly (-addrs spread)"
"$work/bin/drload" -addrs "$r1,$r2,$r3" -clients 3 -requests 600 -batch 8 -verify-idx "$work/graph.idx" -seed 5

echo "== kill -9 replica 2; the fleet routes around it"
kill -9 "$p2"
wait_healthy 2
"$work/bin/drload" -addr "$router" -clients 4 -requests 1000 -batch 8 -verify-idx "$work/graph.idx" -seed 6

echo "== restart replica 2; the health loop readmits it"
start_replica "$r2"; p2=$!
pids="$pids $p2"
wait_healthy 3

echo "== fleet-wide zero-downtime reload: every replica must reach epoch 2"
curl -sf -X POST "http://$router/admin/reload" >/dev/null
for r in "$r1" "$r2" "$r3"; do
	epoch_line="$(curl -sf "http://$r/stats" | grep -o '"index_epoch":[0-9]*')"
	[ "$epoch_line" = '"index_epoch":2' ] || {
		echo "replica $r at $epoch_line after fleet reload, want epoch 2" >&2
		exit 1
	}
done

echo "== reload-under-load: epoch swaps land while a verified burst runs"
"$work/bin/drload" -addr "$router" -clients 4 -duration 3s -batch 8 \
	-verify-idx "$work/graph.idx" -reload-every 500ms -seed 7

echo "== drain + readmit replica 3"
curl -sf -X POST "http://$router/admin/drain?replica=$r3" >/dev/null
i=0
until curl -sf "http://$router/stats" | grep -q "\"addr\":\"$r3\",\"state\":\"drained\""; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "replica 3 never drained" >&2; exit 1; }
	sleep 0.1
done
"$work/bin/drload" -addr "$router" -clients 2 -requests 400 -batch 8 -verify-idx "$work/graph.idx" -seed 8
curl -sf -X POST "http://$router/admin/readmit?replica=$r3" >/dev/null
wait_healthy 3

echo "== graceful shutdown: router first, then replicas"
stop_ok "$router_pid" drrouter
for p in "$p1" "$p2" "$p3"; do
	stop_ok "$p" drserve
done
pids=""

echo "fleet smoke: OK"
