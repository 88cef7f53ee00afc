"""Spans around calls into nqa, recorded from the benchmark's side.

`Tracer.install()` replaces every public function of every nqa module,
in every module namespace that binds it (so `gates.op_mul` and
`operators.op_mul` both go through the wrapper), plus three methods of
NqaOperator: the constructor and the two dense-bridge methods `to_dense`
and `apply`.  Each call while a job runs records a span
[name, start, end, parent, job, child_time, tag]; spans stay in memory
until the run ends.  A span's self time is its duration minus the time
its child spans cover.

The scalar word functions (word_mul, word_transpose, omega, epsilon,
degree, parity) are not spanned: a span costs more than the call, so
their time stays in the caller's self time.  Products are counted at
op_mul as |A| * |B| instead.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from types import FunctionType

NOT_SPANNED = {"word_mul", "word_transpose", "omega", "epsilon", "degree", "parity"}
METHODS = ("__init__", "to_dense", "apply")
SMALL_M = 8  # op_mul spans on m <= SMALL_M are tagged small_m, larger ones large_m

# span fields
NAME, START, END, PARENT, JOB, CHILD, TAG = range(7)


def nqa_modules():
    import nqa

    mods = [nqa]
    for info in pkgutil.iter_modules(nqa.__path__):
        mods.append(importlib.import_module(f"nqa.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = _before(name, args, kwargs, counts)
            if before is not None:
                args, tag = before
            else:
                tag = None
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.job, 0.0, tag]
            stack.append(len(spans))
            spans.append(span)
            failed = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span[START], span[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start
                if failed:
                    counts[name + ".failed"] += 1
            _after(name, args, result, counts)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        from nqa.operators import NqaOperator

        wrappers = {}
        for mod in nqa_modules():
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in NOT_SPANNED
                    or not isinstance(value, FunctionType)
                    or not value.__module__.startswith("nqa")
                ):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{_short(value.__module__)}.{attr}", value)
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
        for attr in METHODS:
            original = NqaOperator.__dict__[attr]
            self._undo.append((NqaOperator, attr, original))
            setattr(NqaOperator, attr, self._wrap(f"operators.NqaOperator.{attr}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# counts taken at span boundaries


def _before(name, args, kwargs, counts):
    """Counts known before the call; may materialise an iterator argument."""
    if name == "operators.NqaOperator.__init__":
        terms = args[2] if len(args) > 2 else kwargs.get("terms")
        if terms is not None and not hasattr(terms, "__len__"):
            terms = list(terms)
            if len(args) > 2:
                args = args[:2] + (terms,) + args[3:]
            else:
                kwargs["terms"] = terms
        counts["operators.NqaOperator.terms_in"] += 0 if terms is None else len(terms)
        return args, None
    if name == "operators.op_mul":
        a, b = args[0], args[1]
        counts["words.products"] += len(a) * len(b)
        return args, "small_m" if a.m <= SMALL_M else "large_m"
    return None


def _after(name, args, result, counts):
    if name == "operators.NqaOperator.__init__":
        counts["operators.NqaOperator.terms_out"] += len(args[0])
    elif name == "operators.NqaOperator.to_dense":
        counts["operators.to_dense.entries"] += 4 ** args[0].m
    elif name == "operators.NqaOperator.apply":
        counts["operators.apply.work"] += len(args[0]) << args[0].m
    elif name == "operators.from_dense":
        counts["operators.from_dense.terms_out"] += len(result)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> tuple[dict, dict, dict, float]:
    """(self seconds by name, calls by name, self seconds by (name, tag),
    total duration of top-level spans)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    tagged: dict[tuple, float] = defaultdict(float)
    top = 0.0
    for span in spans:
        dur = span[END] - span[START]
        own = dur - span[CHILD]
        self_s[span[NAME]] += own
        calls[span[NAME]] += 1
        if span[TAG] is not None:
            tagged[(span[NAME], span[TAG])] += own
        if span[PARENT] < 0:
            top += dur
    return self_s, calls, tagged, top
