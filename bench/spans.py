"""Span tracing from outside the program, for the traced benchmark run.

``Tracer.install`` replaces public callables at each gramhmm module
boundary with timing wrappers and ``uninstall`` puts the originals back;
nothing in ``src/gramhmm`` is edited.  A span is (name, start, end, parent,
command, extra), kept in memory and written out when the run ends.  Spans
are recorded only while a command runs, so reference computations made by
the benchmark itself are never traced.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# (module, owner attribute path, span name, layer).  A name bound into
# several modules is wrapped where each caller looks it up.
WRAPPED = [
    ("cli", "main", "cli.main", "cli"),
    ("grammar", "parse_grammar", "grammar.parse_grammar", "grammar"),
    ("hmm", "parse_hmm", "hmm.parse_hmm", "hmm"),
    ("inference", "forward_table", "inference.forward_table", "inference"),
    ("sampling", "forward_table", "sampling.forward_table", "inference"),
    ("approx", "forward_table", "approx.forward_table", "inference"),
    ("sampling", "sample_many", "sampling.sample_many", "sampling"),
    ("sampling", "Sampler.draw", "sampling.Sampler.draw", "sampling"),
    ("approx", "fpras_likelihood", "approx.fpras_likelihood", "approx"),
    ("approx", "derivation_count", "approx.derivation_count", "grammar"),
    ("approx", "exact_bernoulli", "approx.exact_bernoulli", "approx"),
    ("oracle", "derivation_count", "oracle.derivation_count", "grammar"),
    ("oracle", "string_likelihood", "oracle.string_likelihood", "hmm"),
    ("reductions", "model_count_via_likelihood", "reductions.model_count_via_likelihood", "reductions"),
    ("reductions", "formula_to_cfg", "reductions.formula_to_cfg", "reductions"),
    ("reductions", "brute_force_likelihood", "reductions.brute_force_likelihood", "oracle"),
    ("reductions", "brute_force_model_count", "reductions.brute_force_model_count", "reductions"),
]
LAYER = {name: layer for _, _, name, layer in WRAPPED}
# Kernel counts derived from each forward_table call's arguments, not timed.
COMPUTED = ("inference.matmuls", "inference.flops", "inference.bytes")
LAYERS = ("cli", "grammar", "hmm", "inference", "sampling", "approx", "oracle", "reductions")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _extra_forward_table(args, result):
    g, model, length = args[:3]
    return [length, len(g.binary_rules), model.state_count]


def _extra_fpras(args, result):
    return [result.samples, result.accepted, result.bound_value]


EXTRA = {
    "inference.forward_table": _extra_forward_table,
    "sampling.forward_table": _extra_forward_table,
    "approx.forward_table": _extra_forward_table,
    "approx.fpras_likelihood": _extra_fpras,
    "approx.derivation_count": lambda args, result: args[1],
    "oracle.derivation_count": lambda args, result: args[1],
}
# VmRSS is read before each sample_many call and after each draw.
RSS_BEFORE = "sampling.sample_many"
RSS_AFTER = "sampling.Sampler.draw"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._statm = None

    def _rss_mb(self) -> float:
        return int(os.pread(self._statm, 64, 0).split()[1]) * _PAGE_MB

    def _wrap(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        extra = EXTRA.get(name)
        rss_before, rss_after = name == RSS_BEFORE, name == RSS_AFTER
        tracer = self
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if tracer.command is None:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.command, None]
            stack.append(len(spans))
            spans.append(span)
            if rss_before:
                span[5] = tracer._rss_mb()
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            elif rss_after:
                span[5] = tracer._rss_mb()
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def install(self) -> None:
        import importlib

        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        for module, path, name, _ in WRAPPED:
            owner = importlib.import_module(f"gramhmm.{module}")
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        if self._statm is not None:
            os.close(self._statm)
            self._statm = None

    def write(self, path, commands: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, command, extra = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": command,
                                     "kind": commands[command], "extra": extra}) + "\n")


def _median_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def _repeat_share(spans: list[list], name: str) -> float:
    """Share of calls whose string was already counted in the same command."""
    calls = repeats = 0
    seen: dict[int, set[str]] = {}
    for span in spans:
        if span[0] == name:
            strings = seen.setdefault(span[4], set())
            calls += 1
            repeats += span[5] in strings
            strings.add(span[5])
    return repeats / calls if calls else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    Self time is a span's duration minus the durations of its direct
    children.  approx.derivation_count runs only in approx commands and
    oracle.derivation_count only in reduce3sat commands.
    """
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += duration[i]
    self_time = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, list[int]] = {name: [] for name in LAYER}
    for i, s in enumerate(spans):
        self_time[LAYER[s[0]]] += duration[i] - child_time[i]
        by_name[s[0]].append(i)

    def total(*names: str) -> float:
        return sum(duration[i] for n in names for i in by_name[n])

    def calls(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def self_of(*names: str) -> float:
        return sum(duration[i] - child_time[i] for n in names for i in by_name[n])

    tables = [i for n in ("inference.forward_table", "sampling.forward_table",
                          "approx.forward_table") for i in by_name[n]]
    matmuls = flops = nbytes = 0
    for i in tables:
        if spans[i][5] is None:  # the call raised before returning a table
            continue
        length, rules, n = spans[i][5]
        mm = rules * length * (length - 1) // 2  # sum over l = 2..L of (l - 1) splits
        matmuls += mm
        flops += mm * 2 * n**3          # n^2 (2n - 1) for the product, n^2 to accumulate
        nbytes += mm * 3 * 8 * n * n    # two float64 operands read, one result written
    table_s = sum(duration[i] for i in tables)

    draws = by_name["sampling.Sampler.draw"]
    growth = 0.0
    for j in draws:
        parent = spans[j][3]
        if parent is not None and spans[parent][0] == RSS_BEFORE:
            growth = max(growth, spans[j][5] - spans[parent][5])

    reports = [spans[i][5] for i in by_name["approx.fpras_likelihood"] if spans[i][5]]
    proposals = sum(r[0] for r in reports)
    accepted = sum(r[1] for r in reports)
    accepted_x_bound = sum(r[1] * r[2] for r in reports)

    counts = ("approx.derivation_count", "oracle.derivation_count")
    traced = sum(self_time.values())

    m = {
        "inference.forward_table_s": (table_s, "s"),
        "inference.forward_table_calls": (len(tables), "count"),
        "inference.matmuls": (matmuls, "count"),
        "inference.flops": (flops, "count"),
        "inference.bytes": (nbytes, "B"),
        "inference.us_per_matmul": (table_s / matmuls * 1e6 if matmuls else 0.0, "us"),
        "inference.gflop_per_s": (flops / table_s / 1e9 if table_s else 0.0, "GFLOP/s"),
        "sampling.draw_s": (total("sampling.Sampler.draw"), "s"),
        "sampling.draws": (len(draws), "count"),
        "sampling.draw_us_p50": (_median_us([duration[i] for i in draws]), "us"),
        "sampling.rss_growth_mb": (growth, "MB"),
        "grammar.derivation_count_s": (total(*counts), "s"),
        "grammar.derivation_count_calls": (calls(*counts), "count"),
        "grammar.derivation_count_us_p50": (
            _median_us([duration[i] for n in counts for i in by_name[n]]), "us"),
        "grammar.repeat_share.approx": (_repeat_share(spans, "approx.derivation_count"), "ratio"),
        "grammar.repeat_share.reduce3sat": (
            _repeat_share(spans, "oracle.derivation_count"), "ratio"),
        "grammar.parse_s": (total("grammar.parse_grammar"), "s"),
        "approx.self_s": (self_time["approx"], "s"),
        "approx.proposals": (proposals, "count"),
        "approx.accept_ratio": (accepted / proposals if proposals else 0.0, "ratio"),
        "approx.accept_ratio_x_bound": (accepted_x_bound / proposals if proposals else 0.0, "ratio"),
        "approx.bernoulli_s": (total("approx.exact_bernoulli"), "s"),
        "approx.bernoulli_calls": (calls("approx.exact_bernoulli"), "count"),
        "oracle.brute_force_likelihood_self_s": (self_of("reductions.brute_force_likelihood"), "s"),
        "hmm.string_likelihood_s": (total("oracle.string_likelihood"), "s"),
        "hmm.string_likelihood_calls": (calls("oracle.string_likelihood"), "count"),
        "hmm.parse_s": (total("hmm.parse_hmm"), "s"),
        "reductions.self_s": (self_time["reductions"], "s"),
        "reductions.formula_to_cfg_s": (total("reductions.formula_to_cfg"), "s"),
        "reductions.brute_force_model_count_s": (total("reductions.brute_force_model_count"), "s"),
        "cli.self_s": (self_time["cli"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (self_time[layer] / traced if traced else 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
