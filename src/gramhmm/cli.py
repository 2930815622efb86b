"""Command-line driver: one JSON document per invocation on stdout.

Human-readable diagnostics (timings, progress) go to stderr so stdout stays
machine-readable and bit-reproducible for seeded commands.  Exit codes:
0 ok, 2 usage error (from argparse), 3 validation error, 4 numerical/consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import approx as approx_mod
from . import grammar as grammar_mod
from . import hmm as hmm_mod
from . import inference, oracle, reductions, sampling

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


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
    traces = sampling.sample_many(
        g, model, args.length, args.count, sampling.RngSeed(args.seed), trees=args.emit_trees
    )
    doc = {
        "length": args.length,
        "count": args.count,
        "seed": args.seed,
        "strings": [t.string for t in traces],
    }
    if args.emit_trees:
        doc["trees"] = JsonText(sampling.trees_json(traces))
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
        seed=sampling.RngSeed(args.seed),
    )
    return {
        "estimate": report.estimate,
        "z_weighted": report.z_weighted,
        "samples": report.samples,
        "accepted": report.accepted,
        "epsilon": report.epsilon,
        "bound_value": report.bound_value,
        "seed": report.seed.seed,
    }


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramhmm",
        description="Grammar-constrained HMM likelihoods, sampling and FPRAS approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("likelihood", help="exact or weighted-mass likelihood")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hmm", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=["weighted", "ucfg", "upto"], required=True)
    p.add_argument("--attest-unambiguous", action="store_true")
    p.set_defaults(func=cmd_likelihood)

    p = sub.add_parser("sample", help="draw constrained samples")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hmm", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--emit-trees", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("approx", help="FPRAS estimate for ambiguous grammars")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hmm", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--ambiguity-bound", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("oracle", help="brute-force reference values")
    p.add_argument("--grammar", required=True)
    p.add_argument("--hmm")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--what", choices=["mass", "likelihood", "distribution", "maxambiguity"],
                   required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce3sat", help="3-CNF to union grammar, optionally count models")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_reduce3sat)
    return parser


def _failure_code(exc: ValueError) -> int:
    return EXIT_NUMERICAL if isinstance(exc, inference.NumericalError) else EXIT_VALIDATION


def _nonfinite(doc, path: str) -> str | None:
    """Where the first non-finite float in doc is, and its JSON spelling."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else f"{path} is {json.dumps(doc)}"
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        found = _nonfinite(value, f"{path}.{key}")
        if found:
            return found
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        body = args.func(args)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return _failure_code(e)
    elapsed = time.perf_counter() - started
    # values already written as JSON go last, after the encoded keys
    written = {key: body.pop(key) for key in list(body) if isinstance(body[key], JsonText)}
    doc = {"command": args.command, "status": "ok", **body}
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        print(f"non-finite result: {_nonfinite(body, args.command)}", file=sys.stderr)
        return EXIT_NUMERICAL
    if written:
        text = text[:-1] + "".join(f", {json.dumps(key)}: {value}"
                                   for key, value in written.items()) + "}"
    sys.stdout.write(text + "\n")
    print(f"{args.command}: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
