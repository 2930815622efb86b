"""Command-line driver: one JSON document per invocation on stdout.

Human-readable diagnostics (timings, progress) go to stderr so stdout stays
machine-readable and bit-reproducible for seeded commands.  Exit codes:
0 ok, 2 usage error (from argparse), 3 validation error or out of memory,
4 numerical/consistency error.

``main`` can be called repeatedly in one process: the first call builds the
parser and later calls reuse it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import approx as approx_mod
from . import grammar as grammar_mod
from . import hmm as hmm_mod
from . import inference, oracle, reductions, sampling

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
# json.dumps(value, allow_nan=False), with one encoder in place of one per call
_encode = json.JSONEncoder(allow_nan=False).encode


class JsonText(str):
    """Text that is already JSON; ``main`` writes it into the document as is."""


class CliFailure(ValueError):
    """A command's own validation error (a missing file or option)."""


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliFailure(f"cannot read {what} file: {e}") from None


def _load_grammar(path: str) -> grammar_mod.CnfGrammar:
    return grammar_mod.parse_grammar(_read(path, "grammar"))


def _load_hmm(path: str) -> hmm_mod.Hmm:
    return hmm_mod.parse_hmm(_read(path, "HMM"))


def cmd_likelihood(args) -> dict:
    g = _load_grammar(args.grammar)
    model = _load_hmm(args.hmm)
    if args.mode == "weighted":
        result = inference.weighted_mass(g, model, args.length)
    elif args.mode == "ucfg":
        result = inference.ucfg_likelihood(
            g, model, args.length, unambiguity_attested=args.attest_unambiguous
        )
    else:
        result = inference.likelihood_upto(
            g, model, args.length, unambiguity_attested=args.attest_unambiguous
        )
    return {"value": result.value, "mode": result.mode, "length": result.length}


def cmd_sample(args) -> dict:
    g = _load_grammar(args.grammar)
    model = _load_hmm(args.hmm)
    strings, texts = sampling.sample_many(
        g, model, args.length, args.count, args.seed, trees=args.emit_trees
    )
    doc = {"length": args.length, "count": args.count, "seed": args.seed, "strings": strings}
    if args.emit_trees:
        doc["trees"] = JsonText(sampling.trees_json(texts))
    return doc


def cmd_approx(args) -> dict:
    g = _load_grammar(args.grammar)
    model = _load_hmm(args.hmm)
    report = approx_mod.fpras_likelihood(
        g,
        model,
        args.length,
        epsilon=args.epsilon,
        bound=args.ambiguity_bound,
        seed=args.seed,
    )
    return dataclasses.asdict(report)


def cmd_oracle(args) -> dict:
    g = _load_grammar(args.grammar)
    if args.what == "maxambiguity":
        return {"what": args.what, "length": args.length,
                "value": oracle.max_ambiguity(g, args.length)}
    if args.hmm is None:
        raise CliFailure(f"--hmm is required for --what {args.what}")
    model = _load_hmm(args.hmm)
    if args.what == "mass":
        value = oracle.brute_force_weighted_mass(g, model, args.length)
        return {"what": args.what, "length": args.length, "value": value}
    if args.what == "likelihood":
        value = oracle.brute_force_likelihood(g, model, args.length)
        return {"what": args.what, "length": args.length, "value": value}
    dist = oracle.exact_distribution(g, model, args.length)
    return {
        "what": args.what,
        "length": args.length,
        "z": dist.z,
        "member_likelihood": dist.member_likelihood,
        "probabilities": dict(sorted(dist.probabilities.items())),
    }


def cmd_reduce3sat(args) -> dict:
    formula = reductions.parse_dimacs(_read(args.cnf, "DIMACS"))
    g = reductions.formula_to_cfg(formula)
    doc = {
        "variables": formula.variable_count,
        "clauses": len(formula.clauses),
        "grammar_size": g.size,
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(grammar_mod.format_grammar(g))
        except OSError as e:
            raise CliFailure(f"cannot write grammar file: {e}") from None
        doc["out"] = args.out
    if args.count:
        doc["model_count"] = reductions.model_count_via_likelihood(formula)
        # the brute-force self-check walks all 2^n assignments, so it runs
        # only up to its variable limit
        if formula.variable_count <= reductions.BRUTE_FORCE_VAR_LIMIT:
            doc["brute_force_model_count"] = reductions.brute_force_model_count(formula)
    return doc


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
# subcommand -> (help, handler, (option, add_argument keywords) pairs)
COMMANDS = {
    "likelihood": ("exact or weighted-mass likelihood", cmd_likelihood, (
        ("--grammar", _REQUIRED), ("--hmm", _REQUIRED), ("--length", _INT),
        ("--mode", {"choices": ["weighted", "ucfg", "upto"], "required": True}),
        ("--attest-unambiguous", _FLAG))),
    "sample": ("draw constrained samples", cmd_sample, (
        ("--grammar", _REQUIRED), ("--hmm", _REQUIRED), ("--length", _INT),
        ("--count", _INT), ("--seed", _INT), ("--emit-trees", _FLAG))),
    "approx": ("FPRAS estimate for ambiguous grammars", cmd_approx, (
        ("--grammar", _REQUIRED), ("--hmm", _REQUIRED), ("--length", _INT),
        ("--epsilon", {"type": float, "required": True}), ("--ambiguity-bound", _INT),
        ("--seed", _INT))),
    "oracle": ("brute-force reference values", cmd_oracle, (
        ("--grammar", _REQUIRED), ("--hmm", {}), ("--length", _INT),
        ("--what", {"choices": ["mass", "likelihood", "distribution", "maxambiguity"],
                    "required": True}))),
    "reduce3sat": ("3-CNF to union grammar, optionally count models", cmd_reduce3sat, (
        ("--cnf", _REQUIRED), ("--out", {}), ("--count", _FLAG))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="gramhmm",
        description="Grammar-constrained HMM likelihoods, sampling and FPRAS approximation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def _failure_code(exc: ValueError) -> int:
    return EXIT_NUMERICAL if isinstance(exc, inference.NumericalError) else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        body = args.func(args)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return _failure_code(e)
    except MemoryError as e:
        # a buffer the host cannot give, such as the sampler's transposed copy
        # of the table, is a limit of the input like a table too large to map
        detail = " ".join(str(e).split())
        print(f"out of memory: {detail}" if detail else "out of memory", file=sys.stderr)
        return EXIT_VALIDATION
    elapsed = time.perf_counter() - started
    doc = {"command": args.command, "status": "ok", **body}
    pieces = []  # json.dumps(doc)'s pieces, JsonText values as is; unjoined, so no copy
    try:
        for key, value in doc.items():
            pieces += [", ", _encode(key), ": ", value if isinstance(value, JsonText) else _encode(value)]
    except ValueError:
        # only a top-level float can be non-finite: oracle's z precedes its probabilities
        print(f"non-finite result: {args.command}.{key} is {json.dumps(value)}", file=sys.stderr)
        return EXIT_NUMERICAL
    pieces[0] = "{"
    sys.stdout.writelines(pieces + ["}\n"])
    print(f"{args.command}: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
