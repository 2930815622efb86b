"""The inclusion-exclusion model count, one forward table per group of clause
subsets, and the vectorized brute force, against a walk over every
assignment."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramhmm import inference
from gramhmm.inference import FOLD_ENTRIES
from gramhmm.reductions import (
    Cnf3Formula,
    _group_size,
    brute_force_model_count,
    model_count_via_likelihood,
)


def reference_count(formula: Cnf3Formula) -> int:
    """Satisfying assignments, by itertools over all 2^n of them."""
    return sum(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in formula.clauses)
        for bits in itertools.product((False, True), repeat=formula.variable_count)
    )


def live_subsets(formula: Cnf3Formula) -> int:
    """Nonempty clause subsets that some assignment falsifies clause by clause:
    no variable occurs in them with both signs."""
    live = 0
    for size in range(1, len(formula.clauses) + 1):
        for subset in itertools.combinations(formula.clauses, size):
            literals = {lit for clause in subset for lit in clause}
            live += not any(-lit in literals for lit in literals)
    return live


@st.composite
def formulas(draw):
    """3-CNF over 1-10 variables with 1-12 clauses; literals repeat freely,
    so clauses can be repeated, tautological or jointly contradictory."""
    n = draw(st.integers(1, 10))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=12))
    if len(clauses) < 12 and draw(st.booleans()):
        clauses.append(draw(st.sampled_from(clauses)))
    return Cnf3Formula(n, tuple(clauses))


@pytest.fixture
def tables(monkeypatch):
    """(entries, nonterminals) of each forward table built, in order; patched
    where the traced benchmark wraps it, as a module attribute."""
    built = []
    real = inference.forward_table

    def spy(g, model, L):
        table = real(g, model, L)
        built.append((table.layers.size, g.nonterminal_count))
        return table

    monkeypatch.setattr(inference, "forward_table", spy)
    return built


@settings(max_examples=150, deadline=None)
@given(formulas())
# repeated
@example(Cnf3Formula(3, ((1, 2, 3),) * 12))
# tautological
@example(Cnf3Formula(3, ((1, -1, 2), (2, 3, -3))))
# jointly contradictory
@example(Cnf3Formula(2, ((1, 1, 1), (-1, -1, -1), (2, -1, 2), (-2, -2, -2))))
# every subset empty: each clause is tautological
@example(Cnf3Formula(5, ((1, -1, 2), (3, 4, -3), (-5, 5, 5), (2, -2, 1))))
# no subset empty: all 4095 are live
@example(Cnf3Formula(10, tuple((v, v % 10 + 1, (v + 4) % 10 + 1) for v in [*range(1, 11), 1, 2])))
def test_counts_agree(formula):
    expected = reference_count(formula)
    assert brute_force_model_count(formula) == expected
    assert model_count_via_likelihood(formula) == expected


def test_every_subset_empty():
    formula = Cnf3Formula(5, ((1, -1, 2), (3, 4, -3), (-5, 5, 5), (2, -2, 1)))
    assert live_subsets(formula) == 0
    assert model_count_via_likelihood(formula) == brute_force_model_count(formula) == 2**5


def test_one_table_at_eight_variables(tables):
    formula = Cnf3Formula(8, ((1, -2, 3), (-3, 4, -8), (2, 5, -6), (-1, -7, 8),
                              (4, 6, 7), (-4, -5, 1), (6, -8, 2), (3, 5, 8)))
    assert 1 < live_subsets(formula) <= _group_size(8)
    assert model_count_via_likelihood(formula) == reference_count(formula)
    assert len(tables) == 1
    assert tables[0][0] <= FOLD_ENTRIES


def test_every_live_subset_in_one_table_at_eight_variables(tables):
    # all-positive clauses share no variable with opposite signs, so all
    # 2^8 - 1 subsets are live; one grammar of 255 * 8 + 2 nonterminals
    # takes them all
    formula = Cnf3Formula(8, tuple(tuple((3 * i + j) % 8 + 1 for j in range(3))
                                   for i in range(8)))
    assert live_subsets(formula) == 255
    assert model_count_via_likelihood(formula) == reference_count(formula)
    assert tables == [(8 * (255 * 8 + 2), 255 * 8 + 2)]
    assert tables[0][0] <= FOLD_ENTRIES


def test_groups_at_twenty_four_variables(tables):
    rng = np.random.default_rng(24)
    clauses = tuple(tuple(int(v) * int(s) for v, s in zip(rng.choice(24, 3, replace=False) + 1,
                                                          rng.choice([-1, 1], 3)))
                    for _ in range(12))
    formula = Cnf3Formula(24, clauses)
    live = live_subsets(formula)
    assert live > _group_size(24)
    assert model_count_via_likelihood(formula) == brute_force_model_count(formula)
    assert len(tables) == math.ceil(live / _group_size(24)) == 6
    assert all(entries <= FOLD_ENTRIES for entries, _ in tables)


def test_single_subset_table_may_pass_the_cap(tables):
    # past 2^8 variables a table of one subset, n layers of n + 2
    # nonterminals, holds more than FOLD_ENTRIES entries
    n = 300
    formula = Cnf3Formula(n, ((1, 2, 3), (4, 5, 6)))
    assert model_count_via_likelihood(formula) == 49 * 2**294
    assert tables == [(n * (n + 2), n + 2)] * 3


def test_single_clause_at_the_brute_force_limit():
    formula = Cnf3Formula(24, ((1, 2, 3),))
    assert model_count_via_likelihood(formula) == brute_force_model_count(formula) == 2**24 - 2**21
