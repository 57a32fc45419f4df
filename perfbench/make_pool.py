"""Regenerate ``perfbench/pools.json``, the classified input pools the
``ptime`` workload and the small typechecks of ``exptime`` draw from.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/make_pool.py

Each ``ptime`` entry is ``[sub_seed, class, work]`` for the pair
``random_topdown``/``random_schema`` seeded by ``sub_seed``:

* class ``A``: the dataflow pre-filter decides the pair (copy-free and
  order-safe), so no product automaton is built;
* class ``B``: the products are built and the pair is text-preserving;
* class ``C``: the pair is unsafe, so ``counter_example`` runs too.

``work`` is the exact ``ptime.product_states`` plus
``nta.intersection_states`` the decision records through ``repro.obs``.
Each ``typecheck`` entry is ``[sub_seed, work]`` for
``inputs.typecheck_instance(sub_seed)``, with ``typecheck.vectors``
plus ``typecheck.products`` as its work.  Works are counts, so the pools
are the same on every machine.  Drawing a fixed share from each class
and work band keeps the mix of work in a run the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
import sys

PTIME_POOL = 600
TYPECHECK_POOL = 400
MASTER_SEED = 0


def _work(recorder, names) -> int:
    return int(sum(recorder.counters.get(name, 0) for name in names))


def main() -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from repro import counter_example, is_text_preserving, obs
    from repro.core.typecheck import typechecks
    from repro.lint.dataflow import analyze
    from perfbench import inputs

    rng = random.Random(MASTER_SEED)
    pairs = []
    for _ in range(PTIME_POOL):
        sub_seed = rng.getrandbits(32)
        summary = analyze(*inputs.ptime_pair(("random", sub_seed)))
        if summary.copy_free and summary.order_safe:
            pairs.append([sub_seed, "A", 0])
            continue
        transducer, schema = inputs.ptime_pair(("random", sub_seed))
        with obs.recording() as recorder:
            preserving = is_text_preserving(transducer, schema)
            if not preserving:
                counter_example(transducer, schema)
        work = _work(recorder, ("ptime.product_states", "nta.intersection_states"))
        pairs.append([sub_seed, "B" if preserving else "C", work])
    instances = []
    for _ in range(TYPECHECK_POOL):
        sub_seed = rng.getrandbits(32)
        with obs.recording() as recorder:
            typechecks(*inputs.typecheck_instance(sub_seed))
        instances.append([sub_seed, _work(recorder, ("typecheck.vectors", "typecheck.products"))])
    document = {"master_seed": MASTER_SEED, "ptime": pairs, "typecheck": instances}
    with open(inputs.POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    counts = {name: sum(1 for pair in pairs if pair[1] == name) for name in "ABC"}
    print("wrote %d ptime pairs %s and %d typecheck instances to %s"
          % (len(pairs), counts, len(instances), inputs.POOL_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
