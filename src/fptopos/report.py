"""The one result type of every check and every command, the wrapper
that turns a size-cap hit into a verdict, and the countermodel that the
formula checks return."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .errors import SizeCapError

# Verdicts that pass (exit code 0); any other verdict exits 1.
PASSING = frozenset({"holds", "holds-at-bound", "agree", "precohesive",
                     "ok", "decidable", "connected",
                     "pneumoconnected-fibers", "valid", "none"})


@dataclass
class Result:
    """A verdict, the witnesses that back it (each re-checkable from its
    JSON alone) and the details a report shows beside them."""

    verdict: str
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return self.verdict in PASSING


def unknown_at_cap(check):
    """The whole check, with a size-cap hit anywhere in it reported as
    "unknown-at-cap" and the cap's message in `details["capped"]`."""
    @wraps(check)
    def capped(*args, **kwargs) -> Result:
        try:
            return check(*args, **kwargs)
        except SizeCapError as exc:
            return Result("unknown-at-cap", [], {"capped": str(exc)})
    return capped


@dataclass
class Countermodel:
    """Where a formula fails: a stage and the values of its variables
    there."""

    stage: str
    bindings: dict[str, str]
