import math

import numpy as np
import pytest

from gramhmm.approx import (
    ApproxError,
    exact_bernoulli,
    fpras_likelihood,
    sample_size,
)
from gramhmm.grammar import derivation_count, dyck_grammar, parse_grammar, union, universal_grammar
from gramhmm.hmm import random_hmm, uniform_hmm
from gramhmm.inference import forward_table
from gramhmm.oracle import exact_distribution
from gramhmm.sampling import RngSeed, Sampler


def per_string_accepted(g, model, L, epsilon, bound, seed):
    """Acceptances of the FPRAS with each proposal counted on its own."""
    rng = RngSeed(seed).generator()
    draws = Sampler(forward_table(g, model, L)).draw_many(L, sample_size(bound, epsilon), rng)
    return sum(exact_bernoulli(derivation_count(g, t.string), rng) for t in draws)


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


class TestStreamPin:
    """(samples, accepted) of seeded runs, recorded at gramhmm 0.7.0: a change
    to the proposal or Bernoulli stream shows here."""

    @pytest.mark.parametrize("name, L, epsilon, bound, seed, expected", [
        ("union-uu", 8, 0.1, 2, 7, (416, 196)),
        ("union-dyck-uu", 6, 0.1, 3, 11, (936, 468)),
        ("ss", 6, 0.5, 42, 3, (7337, 156)),
    ])
    def test_samples_and_accepted(self, name, L, epsilon, bound, seed, expected):
        u, parens = universal_grammar("ab"), universal_grammar("()")
        g, model = {
            "union-uu": lambda: (union(u, u), random_hmm(3, "ab", seed=5)),
            "union-dyck-uu": lambda: (union(union(dyck_grammar(), parens), parens),
                                      uniform_hmm("()")),
            "ss": lambda: (parse_grammar("start S\nS -> S S\nS -> 'a'"), uniform_hmm("a")),
        }[name]()
        report = fpras_likelihood(g, model, L, epsilon=epsilon, bound=bound, seed=seed)
        assert (report.samples, report.accepted) == expected


class TestExactBernoulli:
    def test_count_one_always_accepts(self):
        rng = np.random.default_rng(0)
        assert all(exact_bernoulli(1, rng) for _ in range(100))

    def test_count_zero_rejected(self):
        with pytest.raises(ApproxError):
            exact_bernoulli(0, np.random.default_rng(0))

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
        a = fpras_likelihood(g, m, 3, epsilon=0.2, bound=2, seed=RngSeed(9))
        b = fpras_likelihood(g, m, 3, epsilon=0.2, bound=2, seed=RngSeed(9))
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

    @pytest.mark.parametrize("epsilon", [0.1, 0.2])
    def test_batched_counts_match_per_string_loop(self, dyck, universal_ab, epsilon):
        # the instances of acceptance criterion 6, where every proposal of an
        # instance has the same count, and one mixing counts 2 and 3, where
        # the order of the Bernoulli draws shows; bound 5 at epsilon 0.1
        # draws 2600 proposals, so several sampler batches
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
                assert report.accepted == per_string_accepted(g, m, L, epsilon, bound, seed)

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
