"""Recount corpus classes with the independent brute-force oracle.

    PYTHONPATH=src:tests python benchmarks/oracle.py \
        '[["refgraph", {"V": 3, "E": 3}]]'

Prints a JSON list with one class count per (base, bounds) pair, found by
`tests/oracles.py` (all functorial presheaves, quadratic isomorphism
dedup), which shares no code with `fptopos.corpus`.
"""

from __future__ import annotations

import json
import sys

import oracles
from fptopos.files import resolve_base


def recount(base: str, bounds: dict) -> int:
    C = resolve_base(base)
    return oracles.recount_classes(oracles.brute_force_presheaves(C, bounds))


if __name__ == "__main__":
    print(json.dumps([recount(base, bounds)
                      for base, bounds in json.loads(sys.argv[1])]))
