"""Exact references and output checks for every benchmark command.

References come from the benchmark's own data (decks.Grammar rules, the
factorized HMM weights, the formula clauses), never from the code under
test, except the sampler's TV check, which compares against
``gramhmm.oracle.exact_distribution``, the repository's brute-force ground
truth.  References are computed outside the timed region and cached per
input.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from decks import WEIGHT_DENOMINATOR, Command, Grammar

REL_TOL = 1e-9
# A correct randomized command fails its check with probability below this.
MISS_PROB = 1e-6
TV_MAX_LENGTH = 8


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_output(text: str) -> dict:
    """Strict JSON: exactly one document, no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class References:
    """Per-input cache of exact values."""

    def __init__(self):
        self._tree_weights: dict = {}
        self._distributions: dict = {}

    def tree_weights(self, g: Grammar, leaf: dict[str, int], length: int) -> list[int]:
        """T[l] = sum over length-l trees rooted at g.start of the product of leaf weights.

        Returned entries are integers scaled by 64^l; the DP depends on the
        leaf weights only through each nonterminal's length-1 total.
        """
        base = {}
        for a, s in g.lexical:
            base[a] = base.get(a, 0) + leaf[s]
        key = (g, tuple(sorted(base.items())))
        table = self._tree_weights.setdefault(key, [None, base])
        while len(table) <= length:
            l = len(table)
            cur: dict[str, int] = {}
            for a, b, c in g.binary:
                total = sum(table[m].get(b, 0) * table[l - m].get(c, 0) for m in range(1, l))
                if total:
                    cur[a] = cur.get(a, 0) + total
            table.append(cur)
        return [row.get(g.start, 0) if row else 0 for row in table]

    def mass(self, cmd: Command, length: int) -> Fraction:
        """Exact weighted mass of the command's grammar under its factorized HMM."""
        leaf = dict(zip(cmd.hmm.alphabet, cmd.hmm.weights))
        weights = self.tree_weights(cmd.grammar, leaf, length)
        return Fraction(weights[length], WEIGHT_DENOMINATOR ** length)

    def distribution(self, cmd: Command, hmm_path: str, grammar_path: str):
        key = (grammar_path, hmm_path, cmd.length)
        if key not in self._distributions:
            from gramhmm.grammar import parse_grammar
            from gramhmm.hmm import parse_hmm
            from gramhmm.oracle import exact_distribution

            with open(grammar_path, encoding="utf-8") as fh:
                g = parse_grammar(fh.read())
            with open(hmm_path, encoding="utf-8") as fh:
                m = parse_hmm(fh.read())
            self._distributions[key] = exact_distribution(g, m, cmd.length).probabilities
        return self._distributions[key]


def _close(value: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= REL_TOL * abs(exact)


def _float_or_inf(exact: Fraction) -> float:
    try:
        return float(exact)
    except OverflowError:
        return math.inf


class Verdict:
    """Outcome of one command: ``failed`` counts toward failure_rate,
    ``wrong`` means a returned value contradicts its exact reference."""

    def __init__(self, failed: bool = False, wrong: bool = False, reason: str = ""):
        self.failed = failed
        self.wrong = wrong
        self.reason = reason


OK = Verdict()


def _wrong(reason: str) -> Verdict:
    return Verdict(failed=True, wrong=True, reason=reason)


def check(cmd: Command, code: int, stdout: str, refs: References, argv: list[str]) -> Verdict:
    if code != 0:
        return Verdict(failed=True, reason=f"exit code {code}")
    try:
        doc = parse_output(stdout)
    except ValueError as e:
        return _check_nonfinite(cmd, stdout, refs, str(e))
    if doc.get("status") != "ok" or doc.get("command") != cmd.kind:
        return _wrong(f"unexpected header {doc.get('command')!r}/{doc.get('status')!r}")
    return {
        "likelihood": _check_likelihood,
        "sample": _check_sample,
        "approx": _check_approx,
        "reduce3sat": _check_reduce3sat,
    }[cmd.kind](cmd, doc, refs, argv)


def _check_nonfinite(cmd: Command, stdout: str, refs: References, error: str) -> Verdict:
    """Invalid JSON fails; it is also wrong unless the exact value really is
    beyond float64 range, where IEEE rounding gives +inf."""
    if cmd.kind == "likelihood" and cmd.mode == "weighted":
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = {}
        if doc.get("value") == math.inf and _float_or_inf(refs.mass(cmd, cmd.length)) == math.inf:
            return Verdict(failed=True, reason="Infinity printed: exact mass exceeds float64 range")
    return _wrong(f"invalid output: {error}")


def _check_likelihood(cmd: Command, doc: dict, refs: References, argv) -> Verdict:
    if cmd.mode == "upto":
        exact = sum((refs.mass(cmd, l) for l in range(1, cmd.length + 1)), Fraction(0))
    else:
        exact = refs.mass(cmd, cmd.length)
    expected_mode = {"weighted": "weighted-mass", "ucfg": "ucfg-exact", "upto": "upto-L"}[cmd.mode]
    if doc.get("mode") != expected_mode or doc.get("length") != cmd.length:
        return _wrong(f"mode/length {doc.get('mode')}/{doc.get('length')}")
    value = doc.get("value")
    if not isinstance(value, (int, float)) or not _close(value, exact):
        return _wrong(f"value {value!r} != exact {float(exact)!r}")
    return OK


def _dyck_member(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0 and len(w) > 0


def _tree_yield(node: dict, out: list[str]) -> None:
    if "terminal" in node:
        out.append(node["terminal"])
    for child in node.get("children", ()):
        _tree_yield(child, out)


def tv_bound(probabilities: dict[str, float], draws: int) -> float:
    """TV level a correct sampler exceeds with probability below MISS_PROB.

    E[TV] <= 1/2 sum_w sqrt(p_w (1 - p_w) / N), and TV moves by at most 1/N
    per draw, so McDiarmid adds sqrt(ln(1/MISS_PROB) / (2N)).
    """
    mean = 0.5 * sum(math.sqrt(p * (1 - p) / draws) for p in probabilities.values())
    return mean + math.sqrt(math.log(1 / MISS_PROB) / (2 * draws))


def _check_sample(cmd: Command, doc: dict, refs: References, argv) -> Verdict:
    strings = doc.get("strings")
    if doc.get("length") != cmd.length or doc.get("count") != cmd.count:
        return _wrong("length/count echo mismatch")
    if not isinstance(strings, list) or len(strings) != cmd.count:
        return _wrong("wrong number of strings")
    member = _dyck_member if cmd.grammar.name == "dyck" else (
        lambda w: set(w) <= set(cmd.grammar.alphabet))
    for w in strings:
        if not isinstance(w, str) or len(w) != cmd.length or not member(w):
            return _wrong(f"string {w!r} not a length-{cmd.length} member")
    if cmd.trees:
        trees = doc.get("trees")
        if not isinstance(trees, list) or len(trees) != cmd.count:
            return _wrong("wrong number of trees")
        for tree, w in zip(trees, strings):
            leaves: list[str] = []
            _tree_yield(tree, leaves)
            if tree.get("span") != [0, cmd.length] or "".join(leaves) != w:
                return _wrong("tree yield does not match its string")
    if cmd.length <= TV_MAX_LENGTH:
        grammar_path = argv[argv.index("--grammar") + 1]
        hmm_path = argv[argv.index("--hmm") + 1]
        exact = refs.distribution(cmd, hmm_path, grammar_path)
        freq: dict[str, int] = {}
        for w in strings:
            freq[w] = freq.get(w, 0) + 1
        tv = 0.5 * sum(abs(freq.get(w, 0) / cmd.count - exact.get(w, 0.0))
                       for w in set(freq) | set(exact))
        if tv > tv_bound(exact, cmd.count):
            return _wrong(f"TV {tv:.4f} above bound {tv_bound(exact, cmd.count):.4f}")
    return OK


def sample_size(bound: int, epsilon: float) -> int:
    """Hoeffding sample count with failure probability 1/4, recomputed here."""
    return math.ceil(math.log(8.0) * bound * bound / (2.0 * epsilon * epsilon))


def _check_approx(cmd: Command, doc: dict, refs: References, argv) -> Verdict:
    z_exact = refs.mass(cmd, cmd.length)
    z, n, accepted, estimate = (doc.get(k) for k in ("z_weighted", "samples", "accepted", "estimate"))
    if not all(isinstance(v, (int, float)) for v in (z, n, accepted, estimate)):
        return _wrong("missing numeric field")
    if not _close(z, z_exact):
        return _wrong(f"z_weighted {z!r} != exact {float(z_exact)!r}")
    if n != sample_size(cmd.bound, cmd.epsilon) or doc.get("bound_value") != cmd.bound:
        return _wrong(f"samples {n} != sample_size({cmd.bound}, {cmd.epsilon})")
    if not 0 <= accepted <= n or not math.isclose(estimate, z * accepted / n, rel_tol=1e-12):
        return _wrong("estimate != z * accepted / samples")
    # Both grammars cover every string over their alphabet: the true value
    # is 1, so accepted / n estimates 1 / z.
    tolerance = math.sqrt(math.log(2 / MISS_PROB) / (2 * n))
    if abs(accepted / n - 1 / float(z_exact)) > tolerance:
        return _wrong(f"estimate {estimate} outside Hoeffding tolerance of 1")
    return OK


def model_count(formula) -> int:
    return sum(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in formula.clauses)
        for bits in itertools.product((False, True), repeat=formula.variables)
    )


def _check_reduce3sat(cmd: Command, doc: dict, refs: References, argv) -> Verdict:
    expected = model_count(cmd.formula)
    got = (doc.get("model_count"), doc.get("brute_force_model_count"))
    if got != (expected, expected):
        return _wrong(f"model counts {got} != {expected}")
    if doc.get("variables") != cmd.formula.variables or doc.get("clauses") != len(cmd.formula.clauses):
        return _wrong("formula size echo mismatch")
    return OK

