"""Run one `fptopos` CLI command with every public fptopos function traced.

    PYTHONPATH=src python benchmarks/tracer.py SPANS CMD_ID -- ARGS...

Imports `fptopos.cli`, replaces every module-level public function of
every `fptopos.*` module, under every name it is bound to in those
modules, with a wrapper that records a span, then calls
`fptopos.cli.main(ARGS)` and exits with its code.  Spans (name index,
parent, start, end) are kept in memory and written (marshal) to SPANS after
the command has printed its report, together with counters that need a
call's arguments or result.  Nothing in `src/` is changed.

Work submitted to the thread pool of `fptopos.harness` runs inside a
synthetic `harness.worker` span whose parent is the span that submitted
it, so the submitting span's self time excludes the workers' time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import marshal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = -1  # parent id of spans called from outside any traced span


class _Frames(threading.local):
    def __init__(self):
        self.stack = [ROOT]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.frames = _Frames()
        self.ids = itertools.count()
        self.lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.pool_capacity_s = 0.0

    def count(self, key: str, amount: float = 1) -> None:
        with self.lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn, on_result=None):
        """`fn` wrapped so that each call records a span under `name`."""
        idx = self._name(name)
        frames, ids, spans = self.frames, self.ids, self.spans
        clock = time.perf_counter
        size_cap = self._size_cap_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = frames.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except size_cap as exc:
                self._cap_hit(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, idx, parent, start, end))
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _cap_hit(self, exc) -> None:
        # One SizeCapError passes through many traced frames; count it once.
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.count("errors.size_cap.hits")

    def install(self) -> None:
        """Wrap every public function of every loaded fptopos module, in
        every fptopos namespace that binds it."""
        from fptopos.errors import PresheafError, SizeCapError
        self._size_cap_error = SizeCapError
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("fptopos.")}
        originals = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == modname):
                    originals[value] = "%s.%s" % (short, attr)
        hooks = self._result_hooks()
        wrapped = {fn: self.span(name, fn, hooks.get(name))
                   for fn, name in originals.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

        # Candidates are the corpus generator's calls to
        # make_from_generators; a PresheafError rejects one.
        corpus = modules["fptopos.corpus"]
        traced_make = corpus.make_from_generators

        def candidate(*args, **kwargs):
            self.count("corpus.candidates.attempted")
            try:
                return traced_make(*args, **kwargs)
            except PresheafError:
                self.count("corpus.candidates.rejected")
                raise
        corpus.make_from_generators = candidate

        modules["fptopos.harness"].ThreadPoolExecutor = self._pool_class()

    def _result_hooks(self) -> dict:
        def total(key, size):
            return lambda result: self.count(key, size(result))

        def stage_total(sets):
            return sum(len(s) for s in sets.values())
        return {
            "corpus.enumerate_presheaves": total("corpus.classes", len),
            "presheaf.nat_transformations":
                total("presheaf.nat_transformations.arrows", len),
            "presheaf.subfunctors":
                total("presheaf.subfunctors.results", len),
            "decidable.congruences":
                total("decidable.congruences.results", len),
            "forcing.universally_valid":
                total("forcing.countermodels", lambda r: r is not None),
            "forcing.pc_object": lambda pc: (
                self.count("forcing.pc_object.kept",
                           stage_total(pc.sub.parts)),
                self.count("forcing.pc_object.power",
                           stage_total(pc.power.carrier.sets))),
        }

    def _pool_class(self):
        tracer = self
        worker_idx = self._name("harness.worker")
        clock = time.perf_counter

        class TracedPool(ThreadPoolExecutor):
            """The harness pool, parenting each task's spans to the span
            that submitted it and recording the pool's capacity."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._opened = clock()

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.frames.stack[-1]

                def task():
                    sid = next(tracer.ids)
                    frames = tracer.frames
                    saved, frames.stack = frames.stack, [parent, sid]
                    start = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.spans.append((sid, worker_idx, parent,
                                             start, clock()))
                        frames.stack = saved
                return super().submit(task)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                with tracer.lock:
                    tracer.pool_capacity_s += \
                        (clock() - self._opened) * self._max_workers
        return TracedPool

    def dump(self, path: str, cmd_id: str) -> None:
        # marshal writes the span tuples in C, fast enough to keep the
        # dump a small part of the traced command's wall time.
        with open(path, "wb") as fh:
            marshal.dump({"command": cmd_id, "names": self.names,
                          "spans": self.spans, "counters": self.counters,
                          "pool_capacity_s": self.pool_capacity_s}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS CMD_ID -- ARGS...",
              file=sys.stderr)
        return 2
    out, cmd_id, cli_args = argv[0], argv[1], argv[3:]
    cli = importlib.import_module("fptopos.cli")
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(out, cmd_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
