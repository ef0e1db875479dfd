# Shared scaffold of the smoke scripts — sourced, not executed:
#
#	. "$(dirname "$0")/lib.sh"
#
# Sourcing it moves to the repo root, creates the temp work dir $work,
# and installs an exit trap that kills every pid a script appended to
# $pids and removes $work. Everything a script starts must stay a
# child of the script's own shell (background it with &, never inside
# a command substitution) so stop_ok can collect its exit status.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=""
cleanup() {
	for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

# build_tools NAME... -> builds cmd/NAME into $work/bin/NAME
build_tools() {
	echo "== build tools"
	go build -o "$work/bin/" $(printf './cmd/%s ' "$@")
}

# make_fixture -> $work/graph.bin (web family, 20k vertices) and its
# index $work/graph.idx
make_fixture() {
	echo "== generate graph + index"
	"$work/bin/drgen" -family web -n 20000 -deg 6 -seed 7 -o "$work/graph.bin"
	"$work/bin/drlabel" -i "$work/graph.bin" -o "$work/graph.idx" -method drl-shared -workers 4
}

# wait_http URL WHAT -> returns once URL answers 2xx; fails the script
# after 20 s
wait_http() {
	i=0
	until curl -sf "$1" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -gt 200 ] && { echo "$2 never became healthy" >&2; exit 1; }
		sleep 0.1
	done
}

# timed_once ADDR PREFIX HANDLER -> ADDR's /metrics must have timed
# as many HANDLER requests as it counted (the mux times each once)
timed_once() {
	m="$(curl -sf "http://$1/metrics")"
	n="$(printf '%s\n' "$m" | sed -n "s/^$2_http_requests_total{handler=\"$3\"} //p")"
	c="$(printf '%s\n' "$m" | sed -n "s/^$2_http_request_seconds_count{handler=\"$3\"} //p")"
	[ -n "$n" ] && [ "$n" = "$c" ] ||
		{ echo "$1: $n $3 requests counted, ${c:-none} timed" >&2; exit 1; }
}

# forwarded_whole ROUTER HANDLER REPLICA... -> the replicas' HANDLER
# requests must sum to the ROUTER's: each one was passed to one replica
forwarded_whole() {
	fw_router="$1" fw_handler="$2"
	shift 2
	fw_sum=0
	for fw_r in "$@"; do
		fw_n="$(curl -sf "http://$fw_r/metrics" | sed -n "s/^reachlab_http_requests_total{handler=\"$fw_handler\"} //p")"
		fw_sum=$((fw_sum + ${fw_n:-0}))
	done
	fw_n="$(curl -sf "http://$fw_router/metrics" | sed -n "s/^fleet_http_requests_total{handler=\"$fw_handler\"} //p")"
	[ -n "$fw_n" ] && [ "$fw_n" = "$fw_sum" ] ||
		{ echo "$fw_router: ${fw_n:-no} $fw_handler requests, its replicas served $fw_sum" >&2; exit 1; }
}

# stop_ok PID WHAT -> SIGTERM, then the process must exit 0
stop_ok() {
	kill -TERM "$1"
	rc=0
	wait "$1" || rc=$?
	[ "$rc" -eq 0 ] || { echo "$2 exited $rc on SIGTERM" >&2; exit 1; }
}
