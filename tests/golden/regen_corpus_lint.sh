#!/bin/sh
# Regenerates the golden `repro lint --format json` report over the
# example corpus.  Run from the repo root and redirect stdout:
#
#   PYTHONHASHSEED=0 sh tests/golden/regen_corpus_lint.sh \
#     > tests/golden/corpus-lint.json
#
# The CI golden-lint job regenerates this under PYTHONHASHSEED 0, 1 and
# 2 and diffs each output against the committed copy.  Nothing in it
# depends on the hash seed: the dataflow pass counters iterate in sorted
# order, the witness *paths* in the messages are the least shortest
# words (`NFA.shortest_word`), and the witness trees (`witness`,
# `witness_xml`, and `smallest_safe_document`) are the least trees in a
# fixed order.
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
