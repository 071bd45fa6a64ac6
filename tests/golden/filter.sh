#!/usr/bin/env bash
# Reduces `reproduce run` output on stdin to its golden form on stdout:
#   - everything from the `OBSERVABILITY` metrics section on is cut;
#   - the `routing:` and `columnar arena:` lines are dropped (their cache
#     counts and thread count vary with --threads);
#   - wall-clock figures (` in 1.2ms`, `total: 3.4s`) read `<t>`.
# What is left is the same at every thread count and on every machine:
#
#   S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
#       reproduce run --threads 2 | tests/golden/filter.sh |
#       diff tests/golden/reproduce_smoke.txt -
set -euo pipefail
sed -E \
    -e '/^OBSERVABILITY/,$d' \
    -e '/^(routing|columnar arena):/d' \
    -e 's/ in [0-9]+(\.[0-9]+)?(ns|µs|ms|s)/ in <t>/g' \
    -e 's/^total: .*/total: <t>/'
