#!/bin/sh
# End-to-end update smoke (make updatetest, CI update-smoke job):
# drserve in update mode — a mutable graph behind POST /edges with a
# write-ahead log and a background refresher. Checks the whole
# mutation contract over real HTTP:
#
#   - point writes: an insert is acknowledged with the epoch that will
#     contain it, the answer flips once that epoch is live, and the
#     matching delete restores the original answer;
#   - a drload burst with concurrent writers (queries and mutations on
#     the same server, every write acknowledged);
#   - durability: kill -9 mid-stream, restart on the same WAL — from
#     the graph's binary file this time, so both formats are opened —
#     and every acknowledged write must survive the replay;
#   - corruption: with one byte of an early acknowledged record flipped
#     the restart must refuse the log, and with the byte restored it
#     must serve every acknowledged write again;
#   - graceful shutdown on SIGTERM.
. "$(dirname "$0")/lib.sh"
addr=127.0.0.1:18325

# post_edge OP U V -> prints the acknowledged epoch
post_edge() {
	curl -sf -X POST "http://$addr/edges" \
		-d "{\"op\":\"$1\",\"u\":$2,\"v\":$3}" |
		sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'
}

# ack_seq OP U V -> prints the acknowledged log seq
ack_seq() {
	curl -sf -X POST "http://$addr/edges" \
		-d "{\"op\":\"$1\",\"u\":$2,\"v\":$3}" |
		sed -n 's/.*"seq":\([0-9]*\).*/\1/p'
}

# reach U V -> prints true or false
reach() {
	curl -sf "http://$addr/reach?s=$1&t=$2" |
		sed -n 's/.*"reachable":\(true\|false\).*/\1/p'
}

# serving_epoch -> prints the X-Reachlab-Epoch of a query response
serving_epoch() {
	curl -sf -i "http://$addr/reach?s=0&t=1" |
		tr -d '\r' | sed -n 's/^X-Reachlab-Epoch: //p'
}

# wait_epoch N -> polls until the serving epoch reaches N
wait_epoch() {
	i=0
	while [ "$(serving_epoch)" -lt "$1" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "epoch never reached $1" >&2; exit 1; }
		sleep 0.1
	done
}

# stat_field NAME -> prints the integer field NAME from /stats
stat_field() {
	curl -sf "http://$addr/stats" |
		sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

build_tools drgen drserve drload

echo "== generate graph"
"$work/bin/drgen" -family citation -n 2000 -deg 4 -seed 7 -text -o "$work/graph.txt"
"$work/bin/drgen" -family citation -n 2000 -deg 4 -seed 7 -o "$work/graph.bin"

echo "== start drserve in update mode"
"$work/bin/drserve" -graph "$work/graph.txt" -wal "$work/edges.wal" \
	-refresh-every 200ms -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve

echo "== point writes: insert flips the answer at the acked epoch, delete restores it"
# Find a pair (u, v) that is initially unreachable; inserting the
# direct edge u->v must flip it, deleting must flip it back. In the
# citation family edges cite backwards (new -> old), so old -> new
# pairs are unreachable until we add one.
u="" v=""
for cand_u in 3 17 42; do
	for cand_v in 1999 1500 1234; do
		if [ "$(reach "$cand_u" "$cand_v")" = "false" ]; then
			u=$cand_u v=$cand_v
			break 2
		fi
	done
done
[ -n "$u" ] || { echo "no unreachable pair found" >&2; exit 1; }

epoch="$(post_edge insert "$u" "$v")"
[ -n "$epoch" ] || { echo "insert not acknowledged" >&2; exit 1; }
wait_epoch "$epoch"
[ "$(reach "$u" "$v")" = "true" ] || {
	echo "reach($u,$v) still false at acked epoch $epoch" >&2
	exit 1
}

epoch="$(post_edge delete "$u" "$v")"
wait_epoch "$epoch"
[ "$(reach "$u" "$v")" = "false" ] || {
	echo "reach($u,$v) not restored after delete" >&2
	exit 1
}

echo "== drload burst with concurrent writers"
"$work/bin/drload" -addr "$addr" -clients 4 -requests 1500 -batch 8 \
	-writers 2 -write-every 20ms -write-window 500 -seed 5

echo "== update stats sanity"
last_seq="$(stat_field last_seq)"
[ "$last_seq" -gt 2 ] || { echo "last_seq=$last_seq after burst" >&2; exit 1; }
[ "$(stat_field refreshes)" -gt 0 ] || { echo "no refreshes recorded" >&2; exit 1; }

echo "== durability: kill -9, restart on the same WAL"
[ "$(reach 5 1998)" = "false" ] || { echo "probe pair (5,1998) already reachable" >&2; exit 1; }
[ "$(reach 7 1997)" = "false" ] || { echo "probe pair (7,1997) already reachable" >&2; exit 1; }
seq1="$(ack_seq insert 5 1998)"
seq2="$(ack_seq insert 7 1997)"
[ "$seq2" -gt "$seq1" ] || { echo "acks not monotone: $seq1 then $seq2" >&2; exit 1; }
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true

"$work/bin/drserve" -graph "$work/graph.bin" -wal "$work/edges.wal" \
	-refresh-every 200ms -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve
applied="$(stat_field applied_seq)"
[ "$applied" -ge "$seq2" ] || {
	echo "acked seq $seq2 lost: applied_seq=$applied after replay" >&2
	exit 1
}
[ "$(reach 5 1998)" = "true" ] || { echo "acked insert(5,1998) lost" >&2; exit 1; }
[ "$(reach 7 1997)" = "true" ] || { echo "acked insert(7,1997) lost" >&2; exit 1; }

echo "== corruption: a damaged early record is refused, not truncated"
stop_ok "$srv_pid" drserve
pids=""
# Byte 8 is the op of record 1 (the 6-byte header, then its length and
# seq delta): the first point write, acknowledged, with records after it.
wal="$work/edges.wal"
orig="$(od -An -tu1 -j 8 -N 1 "$wal" | tr -d ' ')"
put_byte() {
	printf "\\$(printf '%03o' "$1")" | dd of="$wal" bs=1 seek=8 conv=notrunc 2>/dev/null
}
put_byte $((orig ^ 1))
size="$(wc -c <"$wal")"
rc=0
timeout 30 "$work/bin/drserve" -graph "$work/graph.bin" -wal "$wal" -listen "$addr" \
	2>"$work/corrupt.err" >/dev/null || rc=$?
[ "$rc" -ne 0 ] || { echo "drserve started on a corrupt log" >&2; exit 1; }
grep -q "record 1 at byte 6 is corrupt" "$work/corrupt.err" || {
	echo "drserve refused the corrupt log without naming the record:" >&2
	cat "$work/corrupt.err" >&2
	exit 1
}
[ "$(wc -c <"$wal")" -eq "$size" ] || { echo "the refused log was truncated" >&2; exit 1; }
put_byte "$orig"

"$work/bin/drserve" -graph "$work/graph.bin" -wal "$wal" \
	-refresh-every 200ms -listen "$addr" -grace 5s &
srv_pid=$!
pids="$srv_pid"
wait_http "http://$addr/healthz" drserve
applied="$(stat_field applied_seq)"
[ "$applied" -ge "$seq2" ] || {
	echo "acked seq $seq2 lost after restoring the byte: applied_seq=$applied" >&2
	exit 1
}
[ "$(reach 5 1998)" = "true" ] || { echo "acked insert(5,1998) lost after restoring the byte" >&2; exit 1; }
[ "$(reach 7 1997)" = "true" ] || { echo "acked insert(7,1997) lost after restoring the byte" >&2; exit 1; }

echo "== graceful shutdown on SIGTERM"
stop_ok "$srv_pid" drserve
pids=""

echo "update smoke: OK"
