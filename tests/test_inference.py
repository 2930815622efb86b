import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm.grammar import parse_grammar, union
from gramhmm.hmm import random_hmm, uniform_hmm
from gramhmm.inference import (
    AttestationError,
    InferenceError,
    forward_table,
    likelihood_upto,
    ucfg_likelihood,
    weighted_mass,
)
from gramhmm.oracle import brute_force_weighted_mass, max_ambiguity

from conftest import random_grammar, random_instance


def full_loop_layers(g, model, L):
    """Reference: the split-then-rule loop that forms every product, live or not."""
    n = model.state_count
    layers = np.zeros((L, g.nonterminal_count, n, n))
    for a, s in g.lexical_rules:
        layers[0, a] += model.matrices[s]
    for l in range(2, L + 1):
        cur = layers[l - 1]
        for m in range(1, l):
            lo, hi = layers[m - 1], layers[l - m - 1]
            for a, b, c in g.binary_rules:
                cur[a] += lo[b] @ hi[c]
    return layers


class TestForwardTable:
    def test_base_layer_single_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        m = uniform_hmm("ab")
        with pytest.raises(InferenceError, match="alphabet"):
            forward_table(g, m, 1)
        g2 = parse_grammar("start S\nS -> 'a'\nT -> 'b'")
        table = forward_table(g2, m, 1)
        assert table.layer(1)[g2.start] == pytest.approx(np.array([[0.5]]))

    def test_base_layer_sums_lexical_rules(self):
        g = parse_grammar("start S\nS -> 'a'\nS -> 'b'")
        m = random_hmm(2, "ab", seed=3)
        table = forward_table(g, m, 1)
        expected = m.matrices["a"] + m.matrices["b"]
        assert np.array_equal(table.layer(1)[0], expected)

    def test_dyck_length_2(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 2)
        assert table.contract(2) == pytest.approx(0.25, abs=1e-15)

    def test_catalan_mass(self, ss_grammar):
        m = uniform_hmm("a")
        assert weighted_mass(ss_grammar, m, 4).value == pytest.approx(5.0, abs=1e-12)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(2)
        g, m = random_instance(rng)
        table = forward_table(g, m, 5)
        for l in range(1, 6):
            assert np.all(table.layer(l) >= 0)

    def test_invalid_length(self, dyck, paren_uniform):
        with pytest.raises(InferenceError):
            forward_table(dyck, paren_uniform, 0)

    def test_layers_are_one_read_only_array(self):
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'\nT -> 'a'")
        m = random_hmm(3, "ab", seed=4)
        table = forward_table(g, m, 5)
        assert table.layers.shape == (5, 2, 3, 3) and table.length == 5
        assert table.layers.dtype == np.float64
        assert table.layers.flags.c_contiguous and not table.layers.flags.writeable
        for l in range(1, 6):
            assert np.shares_memory(table.layer(l), table.layers)
        assert table.live.shape == (5, 2) and table.live.dtype == bool
        assert not table.live.flags.writeable
        # random_hmm's entries are strictly positive
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_live_products_match_full_loop(self, seed, L):
        # random_hmm's entries are strictly positive, so F_l[a] has a
        # positive entry exactly when a derives some string of length l
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=True)
        model = random_hmm(int(rng.integers(1, 4)), g.alphabet, int(rng.integers(0, 2**31)))
        table = forward_table(g, model, L)
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_shared_pairs_match_full_loop(self, seed1, seed2, L):
        # the start copies of a union share children pairs with their side,
        # so one pair product feeds several parents
        g = union(random_grammar(np.random.default_rng(seed1)),
                  random_grammar(np.random.default_rng(seed2)))
        model = random_hmm(int(np.random.default_rng(seed1 ^ seed2).integers(1, 4)),
                           g.alphabet, seed1)
        table = forward_table(g, model, L)
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))
        exact = brute_force_weighted_mass(g, model, L)
        assert weighted_mass(g, model, L).value == pytest.approx(exact, rel=1e-9)

    def test_overflow_gives_inf_not_nan(self):
        # F_l[Z] is zero for l >= 2.  The full loop multiplies F_2[Z] by the
        # overflowed S layers and gets 0 * inf = NaN from L = 453 on; the
        # live products alone leave those entries inf
        g = parse_grammar("start S\nS -> S S\nS -> Z S\nS -> 'a'\nS -> 'b'\nZ -> 'a'")
        with np.errstate(over="ignore"):
            table = forward_table(g, uniform_hmm("ab"), 460)
        assert not np.isnan(table.layers).any()
        assert np.isinf(table.layers[450:, g.start]).all()
        assert np.isfinite(table.layers[:450]).all()


class TestWeightedMass:
    def test_universal_is_one(self, universal_ab):
        m = random_hmm(3, "ab", seed=9)
        assert weighted_mass(universal_ab, m, 5).value == pytest.approx(1.0, abs=1e-9)

    def test_doubled_universal(self, universal_ab):
        g = union(universal_ab, universal_ab)
        assert weighted_mass(g, uniform_hmm("ab"), 3).value == pytest.approx(2.0, abs=1e-12)

    def test_dyck(self, dyck, paren_uniform):
        assert weighted_mass(dyck, paren_uniform, 4).value == pytest.approx(0.125, abs=1e-15)

    def test_contract_out_of_range(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 6)
        assert table.contract(6) == weighted_mass(dyck, paren_uniform, 6).value == 0.078125
        with pytest.raises(InferenceError, match="out of range"):
            table.contract(8)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 7))
        exact = brute_force_weighted_mass(g, m, L)
        got = weighted_mass(g, m, L).value
        assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_by_max_ambiguity(self, seed):
        rng = np.random.default_rng(50 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 6))
        assert weighted_mass(g, m, L).value <= max_ambiguity(g, L) + 1e-9


class TestUcfgLikelihood:
    def test_dyck_exact(self, dyck, paren_uniform):
        r = ucfg_likelihood(dyck, paren_uniform, 4, unambiguity_attested=True)
        assert r.value == pytest.approx(0.125, abs=1e-15)
        assert r.mode == "ucfg-exact"

    def test_odd_length_zero(self, dyck, paren_uniform):
        assert ucfg_likelihood(dyck, paren_uniform, 3, unambiguity_attested=True).value == 0.0

    def test_requires_attestation(self, dyck, paren_uniform):
        with pytest.raises(AttestationError, match="attest"):
            ucfg_likelihood(dyck, paren_uniform, 4)

    def test_broken_attestation_detected(self, universal_ab):
        g = union(universal_ab, universal_ab)
        with pytest.raises(AttestationError, match="violated"):
            ucfg_likelihood(g, uniform_hmm("ab"), 2, unambiguity_attested=True)


class TestLikelihoodUpto:
    def test_dyck(self, dyck, paren_uniform):
        r = likelihood_upto(dyck, paren_uniform, 4, unambiguity_attested=True)
        assert r.value == pytest.approx(0.375, abs=1e-15)
        assert r.mode == "upto-L"

    def test_no_short_derivations(self):
        g = parse_grammar("start S\nS -> A B\nA -> 'a'\nB -> 'b'")
        assert likelihood_upto(g, uniform_hmm("ab"), 1, unambiguity_attested=True).value == 0.0

    def test_universal_sums_lengths(self, universal_ab):
        # each length contributes a full distribution; the sum may exceed 1
        r = likelihood_upto(universal_ab, uniform_hmm("ab"), 3, unambiguity_attested=True)
        assert r.value == pytest.approx(3.0, abs=1e-9)

    def test_increments_match_single_lengths(self, dyck, paren_uniform):
        vals = [
            likelihood_upto(dyck, paren_uniform, L, unambiguity_attested=True).value
            for L in range(1, 7)
        ]
        for L in range(2, 7):
            single = ucfg_likelihood(dyck, paren_uniform, L, unambiguity_attested=True).value
            assert abs((vals[L - 1] - vals[L - 2]) - single) <= 1e-12

