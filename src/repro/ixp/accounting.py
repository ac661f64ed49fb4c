"""The one float reduction bit totals use.

Platform totals, shaper totals and shard-merge totals are sums of float
terms collected in a fixed order, and the golden-seed digests pin their
exact bits.  The builtin :func:`sum` does not give those bits on every
interpreter: from Python 3.12 it compensates float rounding (so
``sum([1e16, 1.0, -1e16])`` is ``1.0`` there and ``0.0`` on 3.11).
:func:`ordered_sum` is a plain left fold, so a total is the same float on
every Python version and equals the running ``+=`` it replaces.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

import numpy as np


def ordered_sum(terms: Iterable[float] | np.ndarray) -> float:
    """``((0.0 + t0) + t1) + ...``: a left-to-right float sum of ``terms``."""
    if isinstance(terms, np.ndarray):
        terms = terms.tolist()
    return float(functools.reduce(operator.add, terms, 0.0))
