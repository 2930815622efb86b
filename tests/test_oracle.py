import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gramhmm.grammar import GrammarError, parse_grammar, union, universal_grammar
from gramhmm.hmm import random_hmm, uniform_hmm
from gramhmm.inference import forward_table, weighted_mass
from gramhmm.oracle import (
    ExactDistribution,
    OracleError,
    brute_force_likelihood,
    brute_force_weighted_mass,
    derivation_count,
    exact_distribution,
    exact_weighted_mass,
    tv_distance,
)

from conftest import count_trees_by_enumeration, random_grammar, random_instance


class TestWeightedMass:
    def test_dyck(self, dyck, paren_uniform):
        assert brute_force_weighted_mass(dyck, paren_uniform, 4) == pytest.approx(0.125)

    def test_catalan(self, ss_grammar):
        assert brute_force_weighted_mass(ss_grammar, uniform_hmm("a"), 4) == pytest.approx(5.0)

    def test_empty_support(self, dyck, paren_uniform):
        assert brute_force_weighted_mass(dyck, paren_uniform, 3) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_dp(self, seed):
        rng = np.random.default_rng(400 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 6))
        bf = brute_force_weighted_mass(g, m, L)
        dp = weighted_mass(g, m, L).value
        assert dp == pytest.approx(bf, rel=1e-9, abs=1e-12)


class TestExactWeightedMass:
    def test_dyck_is_catalan(self, dyck, paren_uniform):
        # C_k balanced strings of length 2k, each of probability 2^-2k
        for k in (1, 2, 10):
            assert exact_weighted_mass(dyck, paren_uniform, 2 * k) == Fraction(
                math.comb(2 * k, k), (k + 1) * 2 ** (2 * k))

    def test_empty_support(self, dyck, paren_uniform):
        assert exact_weighted_mass(dyck, paren_uniform, 3) == 0
        with pytest.raises(GrammarError):
            exact_weighted_mass(dyck, paren_uniform, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1300 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 6))
        exact = exact_weighted_mass(g, m, L)
        assert isinstance(exact, Fraction)
        assert float(exact) == pytest.approx(brute_force_weighted_mass(g, m, L), rel=1e-12,
                                             abs=1e-300)

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_float_table_error_on_c08(self, c08, states):
        # past brute force's reach: 2^32 strings at L=32
        m = random_hmm(states, "ab", seed=states)
        table = forward_table(c08, m, 32)
        for L in (8, 16, 32):
            exact = exact_weighted_mass(c08, m, L)
            assert abs(Fraction(table.contract(L)) - exact) <= Fraction(1, 10**13) * exact


class TestLikelihood:
    def test_dyck(self, dyck, paren_uniform):
        assert brute_force_likelihood(dyck, paren_uniform, 4) == pytest.approx(0.125)

    def test_membership_not_multiplicity(self, universal_ab):
        g = union(universal_ab, universal_ab)
        assert brute_force_likelihood(g, uniform_hmm("ab"), 3) == pytest.approx(1.0)

    def test_universal_full_support(self, universal_ab):
        m = random_hmm(2, "ab", seed=4)
        for L in (1, 3, 5):
            assert brute_force_likelihood(universal_ab, m, L) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_by_weighted_mass(self, seed):
        rng = np.random.default_rng(900 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 5))
        assert brute_force_likelihood(g, m, L) <= brute_force_weighted_mass(g, m, L) + 1e-12


class TestExactDistribution:
    def test_dyck(self, dyck, paren_uniform):
        dist = exact_distribution(dyck, paren_uniform, 4)
        assert dist.probabilities == pytest.approx({"(())": 0.5, "()()": 0.5})
        assert dist.z == pytest.approx(0.125)

    def test_universal_symmetry(self, universal_ab):
        dist = exact_distribution(universal_ab, uniform_hmm("ab"), 2)
        assert dist.probabilities == pytest.approx(
            {"aa": 0.25, "ab": 0.25, "ba": 0.25, "bb": 0.25}
        )

    def test_empty_support(self, dyck, paren_uniform):
        with pytest.raises(OracleError, match="empty"):
            exact_distribution(dyck, paren_uniform, 3)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(77)
        g, m = random_instance(rng)
        try:
            dist = exact_distribution(g, m, 3)
        except OracleError:
            pytest.skip("instance has empty support")
        assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


class TestTvDistance:
    def test_identical(self):
        dist = ExactDistribution({"a": 0.5, "b": 0.5}, 1.0, 1.0)
        assert tv_distance({"a": 0.5, "b": 0.5}, dist) == 0.0

    def test_disjoint(self):
        dist = ExactDistribution({"a": 1.0}, 1.0, 1.0)
        assert tv_distance({"b": 1.0}, dist) == 1.0

    def test_small_shift(self):
        dist = ExactDistribution({"a": 0.5, "b": 0.5}, 1.0, 1.0)
        assert tv_distance({"a": 0.6, "b": 0.4}, dist) == pytest.approx(0.1)


class TestDerivationCount:
    """The oracle's per-string reference count, ``oracle.derivation_count``,
    against hand counts and tree enumeration."""

    def test_catalan(self, ss_grammar):
        assert derivation_count(ss_grammar, "aaaa") == 5

    def test_two_trees(self, ss_grammar):
        assert derivation_count(ss_grammar, "aaa") == 2

    def test_single_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        assert derivation_count(g, "a") == 1

    def test_no_binary_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        assert derivation_count(g, "aa") == 0

    def test_unknown_symbol(self):
        g = parse_grammar("start S\nS -> 'a'")
        with pytest.raises(GrammarError, match="alphabet"):
            derivation_count(g, "b")

    def test_empty_string(self):
        g = parse_grammar("start S\nS -> 'a'")
        with pytest.raises(GrammarError):
            derivation_count(g, "")

    def test_dyck_unambiguous(self, dyck):
        assert derivation_count(dyck, "()()") == 1

    def test_big_counts_are_exact(self, ss_grammar):
        # Catalan(19) > 2^32; must not lose precision
        c19 = math.comb(38, 19) // 20
        assert derivation_count(ss_grammar, "a" * 20) == c19

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_tree_enumeration(self, seed):
        g = random_grammar(np.random.default_rng(seed))
        for L in (1, 2, 3, 4):
            for tup in itertools.product(g.alphabet, repeat=L):
                w = "".join(tup)
                assert derivation_count(g, w) == count_trees_by_enumeration(g, w)
