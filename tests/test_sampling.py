from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm.grammar import CnfGrammar, derivation_count, parse_grammar
from gramhmm.hmm import Hmm, random_hmm, uniform_hmm
from gramhmm.inference import NumericalError, forward_table
from gramhmm.oracle import exact_distribution, tv_distance
from gramhmm.sampling import (
    CHUNK,
    RngSeed,
    Sampler,
    SamplingError,
    SamplingNumericalError,
    _pick,
    sample_many,
)

from conftest import random_instance


def leaves(node):
    if node.terminal is not None:
        return [node]
    out = []
    for child in node.children:
        out.extend(leaves(child))
    return out


class TestSample:
    def test_singleton_support(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 2)
        traces = sample_many(dyck, paren_uniform, 2, 20, RngSeed(0), table=table)
        assert [t.string for t in traces] == ["()"] * 20

    def test_empty_support(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 3)
        with pytest.raises(SamplingError, match="empty constrained support"):
            sample_many(dyck, paren_uniform, 3, 1, RngSeed(0), table=table)

    def test_table_mismatch(self, dyck, universal_ab, paren_uniform):
        table = forward_table(universal_ab, uniform_hmm("ab"), 4)
        with pytest.raises(SamplingError, match="different grammar"):
            sample_many(dyck, paren_uniform, 4, 1, RngSeed(0), table=table)

    def test_ambiguous_tree_varies(self, ss_grammar):
        m = uniform_hmm("a")
        traces = sample_many(ss_grammar, m, 3, 4000, RngSeed(5), trees=True)
        assert all(t.string == "aaa" for t in traces)
        # two derivations of aaa, each drawn with probability 1/2
        shapes = Counter(len(t.tree.children[0].children) for t in traces)
        assert set(shapes) == {0, 2}
        for count in shapes.values():
            assert count == pytest.approx(2000, abs=200)

    def test_trace_consistency(self, dyck, paren_uniform):
        for trace in sample_many(dyck, paren_uniform, 6, 50, RngSeed(3), trees=True):
            assert len(trace.string) == 6
            assert derivation_count(dyck, trace.string) >= 1
            lf = leaves(trace.tree)
            assert "".join(n.terminal for n in lf) == trace.string
            assert trace.weight > 0

    def test_local_probabilities_sum_to_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 6)
        sampler = Sampler(table)
        trace = sampler.draw(6, RngSeed(9).generator())

        def visit(node):
            l = node.end - node.start
            s, t = node.states
            a = dyck.nonterminal_names.index(node.nonterminal)
            if l == 1:
                weights = sampler._leaf[a][1][s, t]
            else:
                lo, hi = sampler._factors(a, l, np.array([s]), np.array([t]))
                weights = lo * hi
            assert weights.sum() == pytest.approx(table.layer(l)[a][s, t], rel=1e-9)
            for child in node.children:
                visit(child)

        visit(trace.tree)

    def test_underflow_is_numerical_error(self):
        # every node of b^102 carries weight 0.001^102 < UNDERFLOW_FLOOR
        g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
        m = Hmm(state_count=1, initial=np.array([1.0]),
                matrices={"a": np.array([[0.999]]), "b": np.array([[0.001]])},
                alphabet=("a", "b"))
        with pytest.raises(SamplingNumericalError, match="numerical underflow at node") as e:
            sample_many(g, m, 102, 3, RngSeed(0))
        assert isinstance(e.value, NumericalError)

    def test_overflow_is_numerical_error(self):
        # the weighted mass of S -> S S | 'a' | 'b' passes float64 range by L = 540
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
        with np.errstate(over="ignore", invalid="ignore"):
            table = forward_table(g, uniform_hmm("ab"), 540)
        with pytest.raises(SamplingNumericalError, match="numerical overflow at node"):
            sample_many(g, uniform_hmm("ab"), 540, 2, RngSeed(0), table=table)

    def test_nan_total_is_overflow(self):
        # inf * 0 in a node's weights gives a NaN total, whose cause is overflow
        cum = np.array([[0.5, 1.0], [np.inf, np.nan]])
        with pytest.raises(SamplingNumericalError, match="numerical overflow at node"):
            _pick(cum, np.array([0.3, 0.3]))

    def test_draw_is_batch_of_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 8)
        one = Sampler(table).draw(8, RngSeed(4).generator())
        (batch,) = Sampler(table).draw_many(8, 1, RngSeed(4).generator(), trees=True)
        assert one == batch
        assert "".join(n.terminal for n in leaves(one.tree)) == one.string


class TestSampleMany:
    def test_trees_do_not_change_strings(self, dyck):
        m = random_hmm(3, "()", seed=2)
        plain = sample_many(dyck, m, 10, 300, RngSeed(6))
        with_trees = sample_many(dyck, m, 10, 300, RngSeed(6), trees=True)
        assert [t.string for t in plain] == [t.string for t in with_trees]
        assert [t.weight for t in plain] == [t.weight for t in with_trees]
        assert all(t.tree is None for t in plain)
        for t in with_trees:
            assert "".join(n.terminal for n in leaves(t.tree)) == t.string

    def test_several_batches(self, dyck, paren_uniform):
        count = 2 * CHUNK + 7
        a = [t.string for t in sample_many(dyck, paren_uniform, 6, count, RngSeed(12))]
        b = [t.string for t in sample_many(dyck, paren_uniform, 6, count, RngSeed(12))]
        assert len(a) == count and a == b
        # a later batch is not a replay of the first
        assert a[:CHUNK] != a[CHUNK:2 * CHUNK]

    def test_deterministic(self, dyck, paren_uniform):
        a = [t.string for t in sample_many(dyck, paren_uniform, 4, 10, RngSeed(42))]
        b = [t.string for t in sample_many(dyck, paren_uniform, 4, 10, RngSeed(42))]
        assert a == b

    def test_empty(self, dyck, paren_uniform):
        assert sample_many(dyck, paren_uniform, 4, 0, RngSeed(0)) == []

    def test_negative_count(self, dyck, paren_uniform):
        with pytest.raises(SamplingError):
            sample_many(dyck, paren_uniform, 4, -1, RngSeed(0))


class TestDistribution:
    def test_dyck_even_split(self, dyck, paren_uniform):
        traces = sample_many(dyck, paren_uniform, 4, 20000, RngSeed(1))
        freq = Counter(t.string for t in traces)
        assert set(freq) == {"(())", "()()"}
        assert freq["(())"] / 20000 == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_distribution(self, seed):
        rng = np.random.default_rng(7000 + seed)
        while True:
            g, m = random_instance(rng)
            L = int(rng.integers(2, 5))
            try:
                dist = exact_distribution(g, m, L)
                break
            except Exception:
                continue
        n = 30000
        freq = Counter(t.string for t in sample_many(g, m, L, n, RngSeed(seed)))
        empirical = {w: c / n for w, c in freq.items()}
        assert tv_distance(empirical, dist) <= 0.03

    def test_tree_marginals(self, ss_grammar):
        # per-tree mass is f_A(w) / Z; with four a's there are 5 tree shapes
        m = uniform_hmm("a")
        traces = sample_many(ss_grammar, m, 4, 25000, RngSeed(8), trees=True)

        def shape(node):
            if node.terminal is not None:
                return "*"
            l, r = node.children
            return f"({shape(l)}{shape(r)})"

        freq = Counter(shape(t.tree) for t in traces)
        assert len(freq) == 5
        for count in freq.values():
            assert count / 25000 == pytest.approx(0.2, abs=0.02)


@st.composite
def grammar_and_hmm(draw):
    """Random CNF grammar whose start symbol emits a terminal, plus an HMM."""
    n = draw(st.integers(1, 3))
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    nonterminal = st.integers(0, n - 1)
    binary = draw(st.sets(st.tuples(nonterminal, nonterminal, nonterminal), max_size=5))
    lexical = draw(st.sets(st.tuples(nonterminal, st.sampled_from(alphabet)), max_size=4))
    lexical.add((0, alphabet[0]))
    g = CnfGrammar(
        nonterminal_count=n,
        start=0,
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=tuple(alphabet),
        nonterminal_names=tuple(f"N{i}" for i in range(n)),
    )
    model = random_hmm(draw(st.integers(1, 3)), alphabet, draw(st.integers(0, 2**31)))
    table = forward_table(g, model, 7)
    L = draw(st.sampled_from([l for l in range(1, 8) if table.contract(l) > 0]))
    return g, model, L, table


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(grammar_and_hmm(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_draws_are_members_and_deterministic(self, instance, seed, count):
        g, model, L, table = instance
        first = sample_many(g, model, L, count, RngSeed(seed), table=table)
        again = sample_many(g, model, L, count, RngSeed(seed), table=table)
        assert [t.string for t in first] == [t.string for t in again]
        for trace in first:
            assert len(trace.string) == L
            assert derivation_count(g, trace.string) >= 1
