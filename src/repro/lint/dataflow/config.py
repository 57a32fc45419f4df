"""Process-wide pre-filter switch.

The dataflow summaries are *sound pre-filters*: they may prove a
decision procedure's answer (or shrink its state space) but never
change it.  This module controls whether the decision procedures in
:mod:`repro.core` consult them when a caller passes no summary.

The switch is off while the ``REPRO_NO_PREFILTER`` environment
variable is non-empty.  :func:`prefilter_disabled` sets it for the
dynamic extent of a block and restores it afterwards; ``lint
--no-prefilter`` and ``batch --no-prefilter`` run inside it, so the
pool workers a batch starts meanwhile inherit the choice.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = ["prefilter_enabled", "prefilter_disabled", "NO_PREFILTER_ENV"]

#: Environment variable disabling pre-filtering when non-empty.
NO_PREFILTER_ENV = "REPRO_NO_PREFILTER"


def prefilter_enabled() -> bool:
    """Whether decision procedures may consult dataflow summaries."""
    return not os.environ.get(NO_PREFILTER_ENV)


@contextmanager
def prefilter_disabled() -> Iterator[None]:
    """Disable pre-filtering for the dynamic extent of the block, in this
    process and in the processes it starts meanwhile."""
    previous = os.environ.get(NO_PREFILTER_ENV)
    os.environ[NO_PREFILTER_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(NO_PREFILTER_ENV, None)
        else:
            os.environ[NO_PREFILTER_ENV] = previous
