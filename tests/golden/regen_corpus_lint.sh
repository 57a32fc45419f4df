#!/bin/sh
# Regenerates the golden `repro lint --format json` report over the
# example corpus.  Run from the repo root and redirect stdout:
#
#   PYTHONHASHSEED=0 sh tests/golden/regen_corpus_lint.sh \
#     > tests/golden/corpus-lint.json
#
# The CI golden-lint job regenerates this and diffs it against the
# committed copy.  The dataflow pass counters are byte-stable across
# hash seeds (the pass pipeline iterates in sorted order); the witness
# *paths* in TP2xx/TP3xx messages pick among equally short paths by NFA
# breadth-first search order, so the golden copy is pinned to
# PYTHONHASHSEED=0.  The witness trees (`witness`, `witness_xml`, and
# `smallest_safe_document`) are the least trees in a fixed order, so the
# job also regenerates the report under PYTHONHASHSEED 1 and 2 and
# checks that those values alone match the golden copy.
set -e
corpus=examples/files/corpus
for t in select identity duplicate swap_comments; do
  echo "== $t.tdx x recipes.schema"
  python -m repro lint "$corpus/$t.tdx" "$corpus/recipes.schema" \
    --format json || test $? -eq 1
done
echo "== select.tdx x recipes.schema [protect comment]"
python -m repro lint "$corpus/select.tdx" "$corpus/recipes.schema" \
  --protect comment --format json || test $? -eq 1
