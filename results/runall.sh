#!/bin/bash
# Full experiment battery for EXPERIMENTS.md. Cut-offs are scaled with
# the datasets (the paper uses 2h on the full-size graphs). Runs from
# its own directory against the drbench `make tools` builds (`make
# experiments` does both); progress goes to the terminal, results to
# the .txt files.
cd "$(dirname "$0")"
set -ex
../bin/drbench -exp fig5   -suite medium -cutoff 60s                 > fig5.txt
../bin/drbench -exp fig8   -suite medium -cutoff 45s                 > fig8.txt
../bin/drbench -exp fig9   -suite medium -cutoff 60s                 > fig9.txt
../bin/drbench -exp ablation-order    -suite medium -cutoff 45s      > ablation_order.txt
../bin/drbench -exp ablation-condense -suite medium -cutoff 45s      > ablation_condense.txt
../bin/drbench -exp fig7   -suite medium -cutoff 25s                 > fig7.txt
../bin/drbench -exp fig6   -suite medium -cutoff 25s                 > fig6.txt
../bin/drbench -exp table6 -suite medium -cutoff 30s                 > table6.txt
echo DONE > done.marker
