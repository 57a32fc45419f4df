#!/bin/sh
# Regenerates the golden work counters of the benchmark suite: one key
# per benchmark_or_timer measurement of `pytest benchmarks/`, mapping to
# its exact counters and gauges (state counts of the constructions) and
# the labeled split of its attributed counters, with no timings.  Run from the repo root and redirect stdout:
#
#   sh tests/golden/regen_bench_counters.sh > tests/golden/bench-counters.json
#
# The CI bench-regression job regenerates this under two hash seeds and
# diffs each output against the committed copy, so a changed counter,
# or a changed attribution, needs a regenerated golden.  The pytest log goes to stderr.
set -e
python -m pytest benchmarks/ -q >&2
python - <<'EOF'
import json

with open("BENCH_results.json", encoding="utf-8") as handle:
    results = json.load(handle)
golden = {
    test: {
        "counters": entry["counters"],
        "gauges": entry["gauges"],
        "labeled": entry["labeled"],
    }
    for test, entry in results.items()
}
print(json.dumps(golden, indent=2, sort_keys=True))
EOF
