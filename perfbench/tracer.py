"""Traced run of one CLI command, and the per-layer metrics built from it.

    python perfbench/tracer.py SPANS_OUT ARGV...

With the package on PYTHONPATH, this wraps the public functions of every
grassperm module, calls ``grassperm.cli.main(ARGV)`` and, once main returns,
writes per-function totals and counters to SPANS_OUT as JSON and exits with
main's status.  A layer is a package module.

Spans are folded as they close, with the open ones on a stack, because the
raised verify run closes millions of them: a span's self time is its
duration minus the durations of the spans it caused directly, and a
function's busy time counts its outermost activations only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

MODULES = (
    "cli",
    "verify",
    "oracle",
    "counting",
    "parity",
    "classes",
    "series",
    "patterns",
    "paths",
    "core",
)

# Functions whose calls and busy time are reported; every public function
# is wrapped, so that each module's self time is complete.
REPORTED = (
    "verify.suite_counting",
    "verify.suite_parity",
    "verify.suite_classes",
    "verify.suite_paths",
    "verify.suite_series",
    "verify.suite_identities",
    "oracle.oracle_word_count",
    "oracle.oracle_count",
    "oracle.oracle_grassmannians",
    "counting.avoiding_word_count",
    "counting.avoiding_word_count_alternating",
    "counting.avoiding_word_count_binomial",
    "counting.ballot",
    "parity.odd_word_count",
    "series.inversion_table",
    "patterns.enumerate_avoiders",
    "patterns.enumerate_avoiding_words",
    "patterns.permutation_contains",
    "paths.enumerate_dyck",
    "paths.word_to_dyck",
    "paths.peaks",
    "core.grassmannian_permutations",
    "cli.main",
)

COUNTERS = (
    "oracle.words_scanned",
    "oracle.perms_scanned",
    "oracle.grassmannian_hits",
    "oracle.grassmannian_misses",
    "patterns.words_tested",
    "patterns.words_emitted",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        (f"{f}.{stat}", unit, "lower")
        for f in REPORTED
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("oracle.words_scanned", "count", "lower"),
        ("oracle.perms_scanned", "count", "lower"),
        ("oracle.grassmannian_cache_hit_ratio", "ratio", "higher"),
        ("patterns.words_tested", "count", "lower"),
        ("patterns.words_emitted", "count", "higher"),
        ("patterns.enumerate_yield", "ratio", "higher"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("gate.failed_ratio", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Per-function call counts, busy and self times, and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn):
        i = len(self.names)
        self.names.append(name)
        stack, calls, busy, self_s, depth = (
            self.stack, self.calls, self.busy, self.self_s, self.depth
        )
        for column in (calls, busy, self_s, depth):
            column.append(0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            depth[i] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[i] -= 1
                self_s[i] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[i] += 1
                if not depth[i]:
                    busy[i] += elapsed

        return span

    def totals(self) -> dict:
        return {
            "functions": {
                name: [self.calls[i], self.busy[i], self.self_s[i]]
                for i, name in enumerate(self.names)
            },
            "counters": self.counters,
        }


def _argument(fn, name: str):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


def _count_work(tracer: Tracer, name: str, fn, traced):
    """Wrap ``traced`` (the span wrapper of ``fn``) with the work counters
    measured at this boundary, or return it as it is."""
    counters = tracer.counters
    if name == "oracle.oracle_word_count":
        length = _argument(fn, "m")

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            counters["oracle.words_scanned"] += 2 ** length(args, kwargs)
            return result

    elif name == "oracle.oracle_grassmannians":
        size = _argument(fn, "n")
        cache = getattr(sys.modules[fn.__module__], "_grassmannians", None)
        misses = getattr(cache, "cache_info", None)

        def counted(*args, **kwargs):
            before = misses().misses if misses else None
            result = traced(*args, **kwargs)
            if misses and misses().misses == before:
                counters["oracle.grassmannian_hits"] += 1
            else:
                counters["oracle.grassmannian_misses"] += 1
                counters["oracle.perms_scanned"] += math.factorial(size(args, kwargs))
            return result

    elif name == "patterns.enumerate_avoiding_words":
        # Words tested are the is_avoiding_word calls made meanwhile.
        tests = tracer.calls
        test = "patterns.is_avoiding_word"
        tested = tracer.names.index(test) if test in tracer.names else None

        def counted(*args, **kwargs):
            before = tests[tested] if tested is not None else 0
            result = traced(*args, **kwargs)
            if tested is not None:
                counters["patterns.words_tested"] += tests[tested] - before
            counters["patterns.words_emitted"] += len(result)
            return result

    else:
        return traced
    return functools.wraps(fn)(counted)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every module and rebind every reference
    to them in the package's namespaces, including names imported from a
    sibling module, re-exports and module-level tables of functions."""
    importlib.import_module("grassperm.cli")
    originals = []
    for layer in MODULES:
        module = importlib.import_module(f"grassperm.{layer}")
        for attr, obj in vars(module).items():
            public = inspect.isfunction(obj) and not attr.startswith("_")
            if public and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                originals.append((name, obj, tracer.wrap(name, obj)))
    wrapper = {id(fn): _count_work(tracer, name, fn, traced) for name, fn, traced in originals}
    for name, module in list(sys.modules.items()):
        if name != "grassperm" and not name.startswith("grassperm."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapper:
                setattr(module, attr, wrapper[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in wrapper:
                        obj[key] = wrapper[id(value)]


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Sum the totals of the traced commands into the per-layer metrics that
    come from spans and counters."""
    functions: dict[str, list[float]] = {}
    counters = dict.fromkeys(COUNTERS, 0)
    for run in runs:
        for name, row in run["functions"].items():
            acc = functions.setdefault(name, [0, 0.0, 0.0])
            for j, value in enumerate(row):
                acc[j] += value
        for name, value in run["counters"].items():
            counters[name] += value
    metrics: dict[str, float] = {}
    for name in REPORTED:
        calls, busy, _ = functions.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_s"] = busy
    for layer in MODULES:
        metrics[f"{layer}.self_s"] = sum(
            row[2] for name, row in functions.items() if name.split(".")[0] == layer
        )
    hits = counters["oracle.grassmannian_hits"]
    lookups = hits + counters["oracle.grassmannian_misses"]
    tested, emitted = counters["patterns.words_tested"], counters["patterns.words_emitted"]
    metrics.update(
        {
            "oracle.words_scanned": counters["oracle.words_scanned"],
            "oracle.perms_scanned": counters["oracle.perms_scanned"],
            "oracle.grassmannian_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "patterns.words_tested": tested,
            "patterns.words_emitted": emitted,
            # An enumerator that tests nothing wastes nothing.
            "patterns.enumerate_yield": emitted / max(tested, emitted, 1),
        }
    )
    return metrics


def main(argv: list[str]) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["grassperm.cli"]
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="ascii") as fh:
            json.dump(tracer.totals(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
