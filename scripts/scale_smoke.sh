#!/bin/sh
# End-to-end scale-path smoke (make scale-smoke, CI serve-smoke
# job): exercise the 10^8-edge build path at ~10^6 edges and gate its
# two byte-identity contracts. The streamed generator must write the
# exact bytes of the in-RAM generator, and an mmap-loaded graph must
# label to the exact index of a copy-loaded graph. Only byte
# identities are gated — no timings.
. "$(dirname "$0")/lib.sh"

build_tools drgen drlabel

echo "== generate ~1.2M-edge graph, in-RAM vs streamed (files must be byte-identical)"
"$work/bin/drgen" -family citation -n 300000 -deg 4 -seed 9 -o "$work/ram.bin"
"$work/bin/drgen" -family citation -n 300000 -deg 4 -seed 9 -stream -o "$work/stream.bin"
cmp "$work/ram.bin" "$work/stream.bin" || {
	echo "streamed generator wrote different bytes than the in-RAM generator" >&2
	exit 1
}

echo "== label copy-loaded vs mmap-loaded (indexes must be byte-identical)"
"$work/bin/drlabel" -i "$work/ram.bin" -method tol -o "$work/ram.idx"
"$work/bin/drlabel" -i "$work/ram.bin" -method tol -mmap -o "$work/mmap.idx"
cmp "$work/ram.idx" "$work/mmap.idx" || {
	echo "mmap-loaded graph labeled to a different index than the copy-loaded graph" >&2
	exit 1
}

echo "== scale smoke passed"
