"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion."""

import itertools
import json
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
from scipy.stats import binomtest

from gramhmm.approx import fpras_likelihood
from gramhmm.grammar import (
    dyck_grammar,
    format_grammar,
    parse_grammar,
    union,
    universal_grammar,
)
from gramhmm.hmm import (
    format_hmm,
    random_hmm,
    split_likelihood,
    string_likelihood,
    uniform_hmm,
)
from gramhmm.inference import forward_table, ucfg_likelihood, weighted_mass
from gramhmm.oracle import (
    brute_force_likelihood,
    brute_force_weighted_mass,
    enumerate_language,
    exact_distribution,
    max_ambiguity,
    tv_distance,
)
from gramhmm.reductions import (
    brute_force_model_count,
    formula_to_cfg,
    model_count_via_likelihood,
)
from gramhmm.sampling import sample_many

from conftest import random_instance
from test_reductions import random_formula


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def test_c01_weighted_mass_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(200):
        g, m = random_instance(rng)
        L = int(rng.integers(1, 8))
        exact = brute_force_weighted_mass(g, m, L)
        got = weighted_mass(g, m, L).value
        rel = abs(got - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(1, "forward DP equals brute-force weighted mass", worst <= 1e-9 and elapsed < 120,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_dyck_exactness():
    dyck = dyck_grammar()
    m = uniform_hmm("()")
    ok = True
    details = []
    for L, count in [(2, 1), (4, 2), (6, 5), (8, 14)]:
        assert len(enumerate_language(dyck, L)) == count
        value = ucfg_likelihood(dyck, m, L, unambiguity_attested=True).value
        expected = count / 2**L
        details.append(f"L={L}: {value}")
        ok = ok and abs(value - expected) <= 1e-12
    report(2, "Dyck likelihood equals word count over 2^L", ok, "; ".join(details))


def test_c03_split_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(200):
        m = random_hmm(int(rng.integers(1, 4)), "ab", seed=i)
        L = int(rng.integers(2, 7))
        w = "".join(rng.choice(list("ab"), size=L))
        direct = string_likelihood(m, w)
        for cut in range(1, L):
            err = abs(split_likelihood(m, w, cut) - direct) / max(1.0, direct)
            worst = max(worst, err)
    report(3, "split likelihood equals direct product at every cut", worst <= 1e-12,
           f"max rel err {worst:.2e}")


def test_c04_hmm_normalization():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(50):
        states = int(rng.integers(1, 4))
        alphabet = "ab" if rng.integers(2) else "abc"
        L = int(rng.integers(1, 9))
        m = random_hmm(states, alphabet, seed=1000 + i)
        total = math.fsum(
            string_likelihood(m, "".join(t)) for t in itertools.product(alphabet, repeat=L)
        )
        worst = max(worst, abs(total - 1.0))
    report(4, "length-L string probabilities sum to 1", worst <= 1e-9, f"max err {worst:.2e}")


def _tv_instances():
    dyck = dyck_grammar()
    ambiguous = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
    fixed = [
        (dyck, uniform_hmm("()"), 4),
        (dyck, uniform_hmm("()"), 6),
        (dyck, random_hmm(2, "()", seed=21), 6),
        (universal_grammar("ab"), uniform_hmm("ab"), 3),
        (universal_grammar("ab"), random_hmm(3, "ab", seed=22), 4),
        (ambiguous, uniform_hmm("ab"), 4),
        (ambiguous, random_hmm(2, "ab", seed=23), 4),
        (union(dyck, universal_grammar("()")), uniform_hmm("()"), 4),
    ]
    rng = np.random.default_rng(5150)
    while len(fixed) < 12:
        g, m = random_instance(rng, max_states=3)
        if len(g.alphabet) > 2:
            continue
        L = int(rng.integers(2, 5))
        try:
            exact_distribution(g, m, L)
        except Exception:
            continue
        fixed.append((g, m, L))
    return fixed


def test_c05_sampler_distribution():
    started = time.perf_counter()
    n = 200_000
    worst = 0.0
    for i, (g, m, L) in enumerate(_tv_instances()):
        dist = exact_distribution(g, m, L)
        freq = Counter(sample_many(g, m, L, n, 900 + i)[0])
        empirical = {w: c / n for w, c in freq.items()}
        worst = max(worst, tv_distance(empirical, dist))
    elapsed = time.perf_counter() - started
    report(5, "sampler matches exact conditional distribution",
           worst <= 0.01 and elapsed < 300, f"max TV {worst:.4f}, {elapsed:.1f}s")


def test_c06_fpras_guarantee():
    dyck = dyck_grammar()
    universal = universal_grammar("ab")
    unary = parse_grammar("start S\nS -> S S\nS -> 'a'")
    instances = [
        (union(universal, universal), uniform_hmm("ab"), 3, 2),
        (dyck, uniform_hmm("()"), 4, 1),
        (unary, uniform_hmm("a"), 4, 5),
    ]
    ok = True
    details = []
    for idx, (g, m, L, bound) in enumerate(instances):
        truth = brute_force_likelihood(g, m, L)
        z = brute_force_weighted_mass(g, m, L)
        p_accept = truth / z
        for eps in (0.1, 0.2):
            hits = 0
            accepted = 0
            total = 0
            for run in range(40):
                rep = fpras_likelihood(g, m, L, epsilon=eps, bound=bound,
                                       seed=10_000 + 1000 * idx + run)
                accepted += rep.accepted
                total += rep.samples
                if abs(rep.estimate - truth) <= eps * truth:
                    hits += 1
            # one-sided test of H0: success prob >= 0.75 must not reject
            pvalue = binomtest(hits, 40, 0.75, alternative="less").pvalue
            sigma = math.sqrt(p_accept * (1 - p_accept) / total)
            rate_ok = accepted / total >= 1.0 / bound - 3 * sigma
            details.append(f"inst{idx} eps={eps}: {hits}/40 hits, rate {accepted / total:.3f}")
            ok = ok and pvalue > 0.01 and rate_ok
    report(6, "FPRAS relative-error and acceptance-rate guarantees", ok, "; ".join(details))


def test_c07_model_counting_end_to_end():
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 9))
        f = random_formula(rng, n, k)
        exact = brute_force_model_count(f)
        via = model_count_via_likelihood(f)
        ok = ok and via == exact
        if n <= 8:
            ok = ok and max_ambiguity(formula_to_cfg(f), n) <= k
    report(7, "3SAT model counts match brute force exactly", ok)


def test_c08_complexity_shape():
    g = parse_grammar("start S\n" + "\n".join([
        "S -> S S", "S -> A B", "S -> B A", "S -> A S", "S -> S B",
        "A -> A A", "A -> S B", "B -> B A", "B -> A S", "B -> S S",
        "A -> B B", "S -> B S", "B -> S A", "A -> S S",
        "S -> 'a'", "S -> 'b'", "A -> 'a'", "B -> 'b'", "A -> 'b'", "B -> 'a'",
    ]))
    assert g.size == 20
    m = random_hmm(4, "ab", seed=8)

    # the two lengths are timed in turn, so a drift in host speed reaches
    # both sides of the ratio alike
    best = {64: math.inf, 128: math.inf}
    for _ in range(5):
        for L in best:
            t0 = time.perf_counter()
            forward_table(g, m, L)
            best[L] = min(best[L], time.perf_counter() - t0)

    t64, t128 = best[64], best[128]
    ratio = t128 / t64
    report(8, "forward table time grows quadratically in L",
           3.0 <= ratio <= 6.0 and t128 < 10.0, f"t64={t64:.3f}s t128={t128:.3f}s ratio={ratio:.2f}")


def test_c09_inclusion_exclusion():
    pairs = [
        (dyck_grammar(), universal_grammar("()"), uniform_hmm("()"), 6),
        (dyck_grammar(), dyck_grammar(), uniform_hmm("()"), 6),
        (universal_grammar("ab"), universal_grammar("ab"), random_hmm(2, "ab", seed=6), 5),
    ]
    worst = 0.0
    for g1, g2, m, L in pairs:
        gu = union(g1, g2)
        for side in (g1, g2, gu):
            assert set(side.alphabet) == set(m.alphabet)
        lhs = math.fsum(brute_force_likelihood(gu, m, l) for l in range(1, L + 1))
        per_1 = math.fsum(brute_force_likelihood(g1, m, l) for l in range(1, L + 1))
        per_2 = math.fsum(brute_force_likelihood(g2, m, l) for l in range(1, L + 1))
        inter = math.fsum(
            string_likelihood(m, w)
            for l in range(1, L + 1)
            for w in enumerate_language(g1, l) & enumerate_language(g2, l)
        )
        worst = max(worst, abs(lhs - (per_1 + per_2 - inter)))
    report(9, "union likelihood obeys inclusion-exclusion", worst <= 1e-9,
           f"max err {worst:.2e}")


def test_c10_cli_determinism(tmp_path):
    dyck_path = tmp_path / "dyck.grm"
    dyck_path.write_text(format_grammar(dyck_grammar()))
    hmm_path = tmp_path / "paren.hmm.json"
    hmm_path.write_text(format_hmm(uniform_hmm("()")))
    u = universal_grammar("ab")
    double_path = tmp_path / "double.grm"
    double_path.write_text(format_grammar(union(u, u)))
    ab_path = tmp_path / "ab.hmm.json"
    ab_path.write_text(format_hmm(uniform_hmm("ab")))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "gramhmm.cli", *map(str, args)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ("sample", "--grammar", dyck_path, "--hmm", hmm_path,
         "--length", 6, "--count", 20, "--seed", 7, "--emit-trees"),
        ("approx", "--grammar", double_path, "--hmm", ab_path,
         "--length", 3, "--epsilon", 0.2, "--ambiguity-bound", 2, "--seed", 7),
        ("likelihood", "--grammar", dyck_path, "--hmm", hmm_path,
         "--length", 6, "--mode", "ucfg", "--attest-unambiguous"),
        ("oracle", "--grammar", dyck_path, "--hmm", hmm_path,
         "--length", 6, "--what", "distribution"),
    ]
    ok = True
    for cmd in commands:
        outputs = {
            run(*cmd),
            run(*cmd),
        }
        json.loads(next(iter(outputs)))  # stdout is one well-formed document
        ok = ok and len(outputs) == 1
    report(10, "seeded CLI commands are bit-identical across runs", ok)
