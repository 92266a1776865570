"""The one result type of every check and every command, the wrapper
that turns a size-cap hit into a verdict, and the countermodel that the
formula checks return."""

from __future__ import annotations

from functools import wraps

from .errors import SizeCapError

# Verdicts that pass (exit code 0); any other verdict exits 1.
PASSING = frozenset({"holds", "holds-at-bound", "agree", "precohesive",
                     "ok", "decidable", "connected",
                     "pneumoconnected-fibers", "valid", "none"})


class Result:
    """A verdict, the witnesses that back it (each re-checkable from its
    JSON alone) and the details a report shows beside them."""

    def __init__(self, verdict: str, witnesses: list | None = None,
                 details: dict | None = None):
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.details = {} if details is None else details

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


class Countermodel:
    """Where a formula fails: a stage and the values of its variables
    there."""

    def __init__(self, stage: str, bindings: dict[str, str]):
        self.stage = stage
        self.bindings = bindings
