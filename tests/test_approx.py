import importlib.util
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gramhmm import approx
from gramhmm.approx import ApproxError, exact_bernoulli, fpras_likelihood, sample_size
from gramhmm.grammar import dyck_grammar, parse_grammar, union, universal_grammar
from gramhmm.hmm import Hmm, parse_hmm, random_hmm, uniform_hmm
from gramhmm.inference import NumericalError, forward_table, weighted_mass
from gramhmm.oracle import brute_force_likelihood, derivation_count, exact_distribution
from gramhmm.sampling import Sampler, seeded_generator

DECKS = Path(__file__).resolve().parent.parent / "bench" / "decks.py"


def per_string_accepted(g, model, L, epsilon, bound, seed):
    """The FPRAS's sum of 1 / f_G(w) over its proposals, in exact rationals
    from each proposal's own oracle count."""
    rng = seeded_generator(seed)
    batches = Sampler(forward_table(g, model, L)).draw_batches(L, sample_size(bound, epsilon), rng)
    return sum(Fraction(1, derivation_count(g, w)) for strings, _ in batches for w in strings)


class TestSampleSize:
    def test_documented_values(self):
        assert sample_size(2, 0.1) == 416
        assert sample_size(1, 0.5) == 5

    def test_formula(self):
        for bound, eps in [(3, 0.2), (1, 0.1), (7, 0.3)]:
            expected = math.ceil(math.log(8) * bound**2 / (2 * eps**2))
            assert sample_size(bound, eps) == expected

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ApproxError):
            sample_size(2, 0.0)
        with pytest.raises(ApproxError):
            sample_size(2, 1.0)

    def test_rejects_bad_bound(self):
        with pytest.raises(ApproxError):
            sample_size(0, 0.1)

    @pytest.mark.parametrize("bound, epsilon", [(2, 1e-300), (10**200, 0.5)],
                             ids=["epsilon-underflow", "bound-overflow"])
    def test_size_not_finite(self, bound, epsilon):
        # epsilon^2 underflows to 0, or bound^2 leaves float range
        message = f"sample size is not finite at epsilon {epsilon}, bound {bound}"
        with pytest.raises(ApproxError, match=f"^{re.escape(message)}$"):
            sample_size(bound, epsilon)


class TestStreamPin:
    """(samples, accepted) of seeded runs, recorded at gramhmm 0.25.0, where
    accepted is the sum of 1 / f_G(w) over the proposals: a change to the
    proposal stream shows where the counts vary (every row but union-uu and
    ss, whose strings each have 2 and 42 derivations)."""

    @pytest.mark.parametrize("name, L, epsilon, bound, seed, expected", [
        ("union-uu", 8, 0.1, 2, 7, (416, 208.0)),
        ("union-dyck-uu", 6, 0.1, 3, 11, (936, 449.8333333333333)),
        ("ss", 6, 0.5, 42, 3, (7337, 174.6904761904762)),
        ("union-dyck-u", 8, 0.1, 2, 7, (416, 399.5)),
        ("ss-ab", 5, 0.5, 90, 3, (33687, 635.5162203938193)),
    ])
    def test_samples_and_accepted(self, name, L, epsilon, bound, seed, expected):
        u, parens = universal_grammar("ab"), universal_grammar("()")
        g, model = {
            "union-uu": lambda: (union(u, u), random_hmm(3, "ab", seed=5)),
            "union-dyck-uu": lambda: (union(union(dyck_grammar(), parens), parens),
                                      uniform_hmm("()")),
            "ss": lambda: (parse_grammar("start S\nS -> S S\nS -> 'a'"), uniform_hmm("a")),
            # counts 1 and 2
            "union-dyck-u": lambda: (union(dyck_grammar(), parens), random_hmm(3, "()", seed=5)),
            # fifteen distinct counts, from b^5's 14 to a^5's 90
            "ss-ab": lambda: (parse_grammar("start S\nS -> S S\nS -> A S\nS -> 'a'\nS -> 'b'\n"
                                            "A -> 'a'"), random_hmm(2, "ab", seed=5)),
        }[name]()
        report = fpras_likelihood(g, model, L, epsilon=epsilon, bound=bound, seed=seed)
        assert (report.samples, report.accepted) == expected


class TestExactBernoulli:
    def test_count_one_always_accepts(self):
        rng = np.random.default_rng(0)
        assert all(exact_bernoulli(1, rng) for _ in range(100))

    def test_count_zero_rejected(self):
        for count in (0, -3):
            with pytest.raises(ApproxError, match="^count must be >= 1$"):
                exact_bernoulli(count, np.random.default_rng(0))

    @pytest.mark.parametrize("count,trials,tol", [(2, 100_000, 0.006), (3, 60_000, 0.007)])
    def test_acceptance_rate(self, count, trials, tol):
        rng = np.random.default_rng(123)
        hits = sum(exact_bernoulli(count, rng) for _ in range(trials))
        assert hits / trials == pytest.approx(1 / count, abs=tol)

    def test_huge_count_rarely_accepts(self):
        # count far above 2^53: float division would round to garbage
        rng = np.random.default_rng(7)
        count = 10**30
        assert not any(exact_bernoulli(count, rng) for _ in range(1000))


class TestFpras:
    def test_early_return_on_empty_support(self, dyck, paren_uniform):
        report = fpras_likelihood(dyck, paren_uniform, 3, epsilon=0.1, bound=1, seed=0)
        assert report.estimate == 0.0
        assert report.samples == 0
        assert report.accepted == 0

    def test_unambiguous_accepts_everything(self, dyck, paren_uniform):
        report = fpras_likelihood(dyck, paren_uniform, 4, epsilon=0.2, bound=1, seed=0)
        assert report.accepted == report.samples
        assert report.estimate == report.z_weighted == pytest.approx(0.125, abs=1e-15)

    def test_doubled_universal(self, universal_ab):
        g = union(universal_ab, universal_ab)
        report = fpras_likelihood(g, uniform_hmm("ab"), 3, epsilon=0.1, bound=2, seed=1)
        assert report.z_weighted == pytest.approx(2.0, abs=1e-12)
        assert 0.9 <= report.estimate <= 1.1

    def test_bound_from_derivation_count(self, ss_grammar):
        report = fpras_likelihood(
            ss_grammar, uniform_hmm("a"), 4, epsilon=0.2,
            bound=derivation_count(ss_grammar, "aaaa"), seed=2,
        )
        assert report.bound_value == 5
        assert report.estimate == pytest.approx(1.0, rel=0.2)

    def test_bound_must_be_integer(self, universal_ab):
        g, m = union(universal_ab, universal_ab), uniform_hmm("ab")
        with pytest.raises(ApproxError, match="^ambiguity bound must be an integer$"):
            fpras_likelihood(g, m, 3, epsilon=0.2, bound=2.5, seed=1)
        report = fpras_likelihood(g, m, 3, epsilon=0.2, bound=np.int64(2), seed=1)
        assert report == fpras_likelihood(g, m, 3, epsilon=0.2, bound=2, seed=1)
        assert type(report.bound_value) is int

    def test_deterministic_under_seed(self, universal_ab):
        g = union(universal_ab, universal_ab)
        m = uniform_hmm("ab")
        a = fpras_likelihood(g, m, 3, epsilon=0.2, bound=2, seed=9)
        b = fpras_likelihood(g, m, 3, epsilon=0.2, bound=2, seed=9)
        assert a == b

    def test_rejects_bad_epsilon(self, dyck, paren_uniform):
        with pytest.raises(ApproxError):
            fpras_likelihood(dyck, paren_uniform, 4, epsilon=1.5, bound=1, seed=0)

    def test_bound_exceeded(self, universal_ab):
        # every string of union(u, u) has 2 derivations, so a bound of 1
        # would void the epsilon guarantee
        g = union(universal_ab, universal_ab)
        with pytest.raises(ApproxError, match="^ambiguity bound 1 exceeded: "
                                              "a length-3 proposal has 2 derivations$"):
            fpras_likelihood(g, uniform_hmm("ab"), 3, epsilon=0.1, bound=1, seed=0)

    def test_bound_exceeded_past_float(self):
        # the first batch's largest count is past 2^53, so its chart is
        # filled again over Python ints, and the message carries the exact
        # count
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
        with pytest.raises(ApproxError, match="^ambiguity bound 2 exceeded: a length-40 "
                                              "proposal has 680425371729975800390 "
                                              "derivations$"):
            fpras_likelihood(g, uniform_hmm("ab"), 40, epsilon=0.1, bound=2, seed=0)

    def test_trailing_nul_symbols(self):
        # the proposals "aa\x00" and "aaa" each hold a quarter of the mass
        g = parse_grammar("start S\nS -> A S\nS -> '\x00'\nS -> 'a'\nA -> 'a'")
        m = uniform_hmm("a\x00")
        report = fpras_likelihood(g, m, 3, epsilon=0.3, bound=1, seed=0)
        assert report.estimate == weighted_mass(g, m, 3).value == 0.25

    @pytest.mark.parametrize("epsilon", [0.1, 0.2])
    def test_batched_counts_match_per_string_loop(self, dyck, universal_ab, epsilon):
        # the instances of acceptance criterion 6, where every proposal of an
        # instance has the same count, and one mixing counts 2 and 3; bound 5
        # at epsilon 0.1 draws 2600 proposals, so several sampler batches
        unary = parse_grammar("start S\nS -> S S\nS -> 'a'")
        parens = universal_grammar("()")
        instances = [
            (union(universal_ab, universal_ab), uniform_hmm("ab"), 3, 2),
            (dyck, uniform_hmm("()"), 4, 1),
            (unary, uniform_hmm("a"), 4, 5),
            (union(union(dyck, parens), parens), uniform_hmm("()"), 6, 3),
        ]
        for g, m, L, bound in instances:
            for seed in (10_000, 10_001, 10_002):
                report = fpras_likelihood(g, m, L, epsilon=epsilon, bound=bound, seed=seed)
                exact = per_string_accepted(g, m, L, epsilon, bound, seed)
                assert abs(Fraction(report.accepted) - exact) <= exact / 10**15
                assert report.estimate == report.z_weighted * report.accepted / report.samples

    @pytest.mark.parametrize("epsilon", [0.2, 0.1])
    def test_exact_on_count_deck_union_uu(self, monkeypatch, epsilon):
        # the seed-7 count deck's union-uu and count-ab-3 files: every string
        # has 2 derivations, so each of 40 seeds gives the exact likelihood
        spec = importlib.util.spec_from_file_location("bench_decks", DECKS)
        decks = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, decks)  # for its dataclasses
        spec.loader.exec_module(decks)
        files = decks.build_deck("count", 7).files
        g = parse_grammar(files["union-uu.grm"])
        m = parse_hmm(files["count-ab-3.hmm.json"])
        truth = brute_force_likelihood(g, m, 8)
        for seed in range(40):
            report = fpras_likelihood(g, m, 8, epsilon=epsilon, bound=2, seed=seed)
            assert report.estimate == pytest.approx(truth, rel=1e-12)

    def test_no_draw_after_proposals(self, monkeypatch, universal_ab):
        g, m = union(universal_ab, universal_ab), uniform_hmm("ab")
        made = []
        monkeypatch.setattr(approx, "seeded_generator",
                            lambda seed: made.append(seeded_generator(seed)) or made[-1])
        fpras_likelihood(g, m, 3, epsilon=0.1, bound=2, seed=4)
        rng = seeded_generator(4)
        for _ in Sampler(forward_table(g, m, 3)).draw_batches(3, sample_size(2, 0.1), rng):
            pass
        assert made[0].bit_generator.state == rng.bit_generator.state

    def test_count_below_one_rejected(self, monkeypatch, universal_ab):
        # the sampler draws only members, so this guards the sum's divisions
        monkeypatch.setattr(approx, "derivation_counts", lambda g, strings: [0] * len(strings))
        with pytest.raises(ApproxError, match="^a length-3 proposal has no derivation$"):
            fpras_likelihood(union(universal_ab, universal_ab), uniform_hmm("ab"), 3,
                             epsilon=0.2, bound=2, seed=0)

    @pytest.mark.parametrize("L", [108, 110])
    def test_underflowed_mass_is_numerical_error(self, L):
        # the start is live, but 0.001^L flushes the weighted mass to 0.0
        g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
        m = Hmm(initial=np.array([1.0]),
                matrices={"a": np.array([[0.999]]), "b": np.array([[0.001]])})
        with pytest.raises(NumericalError, match=f"^weighted mass 0.0 at length {L} is not "
                                                 "a normal float64$"):
            fpras_likelihood(g, m, L, epsilon=0.5, bound=1, seed=0)

    def test_acceptance_identity(self, ss_grammar):
        # sum over strings of proposal mass / derivation count equals the
        # membership likelihood over Z (the rejection-rate identity)
        g = union(ss_grammar, ss_grammar)
        m = uniform_hmm("a")
        dist = exact_distribution(g, m, 4)
        lhs = math.fsum(
            p / derivation_count(g, w) for w, p in dist.probabilities.items()
        )
        assert lhs == pytest.approx(dist.member_likelihood / dist.z, abs=1e-9)

    def test_estimator_unbiased_in_expectation(self, ss_grammar):
        m = uniform_hmm("a")
        dist = exact_distribution(ss_grammar, m, 5)
        p_accept = math.fsum(
            p / derivation_count(ss_grammar, w) for w, p in dist.probabilities.items()
        )
        assert dist.z * p_accept == pytest.approx(dist.member_likelihood, abs=1e-9)
