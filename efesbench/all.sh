#!/usr/bin/env bash
# Run every workload once, one after the other, and print each one's
# metrics by name and unit. Run from the repository root:
#
#   bash efesbench/all.sh --seed 1 --seconds 20 --trace 0
set -euo pipefail

for workload in paper_mix cold_scale append_grow; do
    echo "== $workload"
    bash efesbench/run.sh --workload "$workload" "$@"
done
