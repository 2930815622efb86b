import functools
import itertools

import numpy as np
import pytest

from gramhmm.grammar import union
from gramhmm.oracle import derivation_count
from gramhmm.oracle import enumerate_language, max_ambiguity
from gramhmm.hmm import uniform_hmm
from gramhmm.oracle import brute_force_likelihood
from gramhmm.reductions import (
    Cnf3Formula,
    ReductionError,
    brute_force_model_count,
    clause_complement_grammar,
    formula_to_cfg,
    model_count_via_likelihood,
    parse_dimacs,
)


def random_formula(rng: np.random.Generator, n: int, k: int) -> Cnf3Formula:
    clauses = []
    for _ in range(k):
        variables = rng.choice(n, size=3, replace=True) + 1
        signs = rng.choice([-1, 1], size=3)
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return Cnf3Formula(variable_count=n, clauses=tuple(clauses))


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert f.variable_count == 3
        assert f.clauses == ((1, 2, 3),)

    def test_two_clauses_with_comments(self):
        f = parse_dimacs("c example\np cnf 4 2\n1 -2 3 0\n-1 2 -4 0\n")
        assert f.variable_count == 4
        assert f.clauses == ((1, -2, 3), (-1, 2, -4))

    def test_arity_error(self):
        with pytest.raises(ReductionError, match="3 literals"):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(ReductionError, match="header"):
            parse_dimacs("p sat 2 1\n1 2 1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ReductionError, match="clauses"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)


class TestClauseGrammar:
    def test_all_positive(self):
        g = clause_complement_grammar((1, 2, 3), 3)
        assert enumerate_language(g, 3) == {"000"}

    def test_free_variable(self):
        g = clause_complement_grammar((1, 2, 3), 4)
        assert enumerate_language(g, 4) == {"0000", "0001"}

    def test_negated_literal(self):
        g = clause_complement_grammar((-1, 2, 3), 3)
        assert enumerate_language(g, 3) == {"100"}

    def test_unambiguous(self):
        g = clause_complement_grammar((1, -2, 3), 4)
        assert max_ambiguity(g, 4) == 1

    def test_tautological_clause_empty_language(self):
        g = clause_complement_grammar((1, -1, 2), 3)
        assert enumerate_language(g, 3) == set()

    @pytest.mark.parametrize("clause, language", [
        ((1, 1, 1), {"0"}),
        ((-1, -1, -1), {"1"}),
        ((1, -1, 1), set()),
    ])
    def test_one_variable(self, clause, language):
        g = clause_complement_grammar(clause, 1)
        assert enumerate_language(g, 1) == language
        assert max_ambiguity(g, 1) == len(language)

    @pytest.mark.parametrize("clause, n", [((), 0), ((), 2), ((1, 2), 2)])
    def test_rejects_clause_without_three_literals(self, clause, n):
        with pytest.raises(ReductionError, match=r"does not have exactly 3 literals"):
            clause_complement_grammar(clause, n)


class TestFormulaToCfg:
    def test_single_clause(self):
        f = Cnf3Formula(3, ((1, 2, 3),))
        assert enumerate_language(formula_to_cfg(f), 3) == {"000"}

    def test_repeated_clause_doubles(self):
        f = Cnf3Formula(3, ((1, 2, 3), (1, 2, 3)))
        assert derivation_count(formula_to_cfg(f), "000") == 2

    def test_counts_falsified_clauses(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n, k = int(rng.integers(3, 7)), int(rng.integers(1, 5))
            f = random_formula(rng, n, k)
            g = formula_to_cfg(f)
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                falsified = sum(
                    not any((w[abs(l) - 1] == "1") == (l > 0) for l in clause)
                    for clause in f.clauses
                )
                assert derivation_count(g, w) == falsified

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
    def test_equals_nested_unions(self, k):
        # one construction gives the grammar, names included, that the
        # nested unions of the clause grammars construct step by step
        rng = np.random.default_rng(k)
        f = random_formula(rng, int(rng.integers(3, 9)), k)
        nested = functools.reduce(union, [clause_complement_grammar(c, f.variable_count)
                                          for c in f.clauses])
        assert formula_to_cfg(f) == nested

    def test_ambiguity_bounded_by_clause_count(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n, k = int(rng.integers(3, 6)), int(rng.integers(1, 6))
            f = random_formula(rng, n, k)
            assert max_ambiguity(formula_to_cfg(f), n) <= k


class TestModelCount:
    def test_single_clause(self):
        f = Cnf3Formula(3, ((1, 2, 3),))
        assert model_count_via_likelihood(f) == 7
        assert brute_force_model_count(f) == 7

    def test_degenerate_repeats(self):
        f = Cnf3Formula(2, ((1, 1, 1),))
        assert model_count_via_likelihood(f) == 2
        assert brute_force_model_count(f) == 2

    def test_two_clauses(self):
        f = Cnf3Formula(3, ((1, 2, 3), (-1, -2, -3)))
        assert model_count_via_likelihood(f) == 6
        assert brute_force_model_count(f) == 6

    def test_contradiction(self):
        f = Cnf3Formula(2, ((1, 1, 1), (-1, -1, -1)))
        assert brute_force_model_count(f) == 0
        assert model_count_via_likelihood(f) == 0

    @pytest.mark.parametrize("clauses", [
        *((clause,) for clause in itertools.product((1, -1), repeat=3)),
        ((1, 1, 1), (-1, -1, -1)),
    ])
    def test_one_variable(self, clauses):
        f = Cnf3Formula(1, clauses)
        assert model_count_via_likelihood(f) == brute_force_model_count(f)

    def test_single_clause_ten_vars(self):
        f = Cnf3Formula(10, ((1, 2, 3),))
        assert brute_force_model_count(f) == 2**10 - 2**7

    def test_dp_mode_matches(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n, k = int(rng.integers(3, 8)), int(rng.integers(1, 6))
            f = random_formula(rng, n, k)
            assert model_count_via_likelihood(f) == brute_force_model_count(f)

    def test_oracle_mode_matches(self):
        # the reduction identity on the union grammar, with the oracle likelihood
        rng = np.random.default_rng(10)
        m = uniform_hmm("01")
        for _ in range(8):
            n, k = int(rng.integers(3, 8)), int(rng.integers(1, 6))
            f = random_formula(rng, n, k)
            likelihood = brute_force_likelihood(formula_to_cfg(f), m, n)
            assert round(2**n * (1 - likelihood)) == brute_force_model_count(f)

    def test_clause_limit(self):
        f = Cnf3Formula(4, ((1, 2, 3),) * 13)
        with pytest.raises(ReductionError, match="limited to 12 clauses"):
            model_count_via_likelihood(f)

    def test_brute_force_var_limit(self):
        with pytest.raises(ReductionError, match="limited"):
            brute_force_model_count(Cnf3Formula(25, ((1, 2, 3),)))
