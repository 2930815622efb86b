"""#3SAT model counting through the grammar-likelihood engine.

Each clause turns into an unambiguous position-tracking grammar for the
assignments that falsify it; the union grammar over all clauses then
satisfies f_G(w) = number of clauses w falsifies, and the model count is
2^n * (1 - likelihood of the union language under the uniform HMM on
{0,1}).  That likelihood is computed by inclusion-exclusion over clause
subsets: the assignments falsifying every clause of a subset form again a
position grammar, which is unambiguous, so each term is one exact forward-
table likelihood.  The cost is 2^k tables for k clauses, hence the clause
limit.  Used as a rich end-to-end self-test, not a competitive counter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .grammar import CnfGrammar, union
from .hmm import uniform_hmm
from .inference import NumericalError, ucfg_likelihood
# unused here; kept bound because the traced benchmark run wraps this name
from .oracle import brute_force_likelihood  # noqa: F401

__all__ = [
    "ReductionError",
    "InconsistentModelCountError",
    "Cnf3Formula",
    "parse_dimacs",
    "clause_complement_grammar",
    "formula_to_cfg",
    "model_count_via_likelihood",
    "brute_force_model_count",
]

BRUTE_FORCE_VAR_LIMIT = 24
INCLUSION_EXCLUSION_CLAUSE_LIMIT = 12
ROUNDING_RESIDUE_TOL = 1e-6

Clause = tuple[int, int, int]


class ReductionError(ValueError):
    pass


class InconsistentModelCountError(ReductionError, NumericalError):
    """2^n (1 - likelihood) is not close enough to an integer to round."""


@dataclass(frozen=True)
class Cnf3Formula:
    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ReductionError("formula needs at least one variable")
        if not self.clauses:
            raise ReductionError("formula needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ReductionError(f"clause {clause} does not have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ReductionError(f"literal {lit} out of range")


def parse_dimacs(text: str) -> Cnf3Formula:
    """Parse standard DIMACS CNF; every clause must have exactly 3 literals."""
    n_vars = None
    n_clauses = None
    literals: list[int] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf" or n_vars is not None:
                raise ReductionError(f"malformed header: {stripped!r}")
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ReductionError(f"malformed header: {stripped!r}") from None
            continue
        if n_vars is None:
            raise ReductionError("clause line before header")
        try:
            literals.extend(int(tok) for tok in stripped.split())
        except ValueError:
            raise ReductionError(f"non-integer token in clause line: {stripped!r}") from None
    if n_vars is None:
        raise ReductionError("missing 'p cnf' header")
    clauses: list[Clause] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise ReductionError(f"clause {current} does not have exactly 3 literals")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ReductionError("unterminated clause (missing trailing 0)")
    if n_clauses != len(clauses):
        raise ReductionError(
            f"header declares {n_clauses} clauses but {len(clauses)} were given"
        )
    return Cnf3Formula(variable_count=n_vars, clauses=tuple(clauses))


def _falsifying_bits(clause: Clause, n: int) -> list[tuple[str, ...]]:
    """Per-position allowed bits for assignments that falsify the clause.

    A positive literal forces bit '0' at its position, a negative one '1';
    untouched positions allow both.  Contradictory repeats (a tautological
    clause) leave a position with no allowed bit, i.e. an empty language.
    """
    allowed: list[set[str]] = [{"0", "1"} for _ in range(n)]
    for lit in clause:
        allowed[abs(lit) - 1] &= {"0"} if lit > 0 else {"1"}
    return [tuple(sorted(a)) for a in allowed]


def _position_grammar(allowed: list[tuple[str, ...]]) -> CnfGrammar:
    """Right-linear CNF grammar for the product language of per-position bit sets.

    Nonterminal Q_i tracks position i; the grammar is deterministic, hence
    unambiguous.  A position with no allowed bit simply gets no rule, which
    makes the language empty.
    """
    n = len(allowed)
    if n < 2:
        raise ReductionError("position grammar needs length >= 2")
    names = [f"Q{i}" for i in range(1, n + 1)] + ["X0", "X1"]
    x = {"0": n, "1": n + 1}
    binary = []
    for i in range(n - 1):
        for bit in allowed[i]:
            binary.append((i, x[bit], i + 1))
    lexical = [(n, "0"), (n + 1, "1")]
    lexical += [(n - 1, bit) for bit in allowed[n - 1]]
    return CnfGrammar(
        start=0,
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=("0", "1"),
        nonterminal_names=tuple(names),
    )


def clause_complement_grammar(clause: Clause, n: int) -> CnfGrammar:
    """Unambiguous grammar for the length-n assignments falsifying the clause."""
    if n < 2:
        raise ReductionError("clause grammar needs at least 2 variables")
    for lit in clause:
        if lit == 0 or abs(lit) > n:
            raise ReductionError(f"literal {lit} out of range")
    return _position_grammar(_falsifying_bits(clause, n))


def formula_to_cfg(formula: Cnf3Formula) -> CnfGrammar:
    """Union of the clause-complement grammars; f_G(w) counts falsified clauses."""
    grammars = [
        clause_complement_grammar(c, formula.variable_count) for c in formula.clauses
    ]
    g = grammars[0]
    for other in grammars[1:]:
        g = union(g, other)
    return g


def brute_force_model_count(formula: Cnf3Formula) -> int:
    """Exhaustive count of satisfying assignments."""
    n = formula.variable_count
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise ReductionError(f"brute force limited to {BRUTE_FORCE_VAR_LIMIT} variables")
    count = 0
    for bits in itertools.product((False, True), repeat=n):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            count += 1
    return count


def model_count_via_likelihood(formula: Cnf3Formula) -> int:
    """Model count as 2^n * (1 - likelihood of the falsifying language).

    The likelihood of the union of the clause-falsifying languages is the
    inclusion-exclusion sum, over nonempty clause subsets, of the exact
    ``ucfg_likelihood`` of each subset's intersection grammar, added with
    ``math.fsum``.  Formulas with more than INCLUSION_EXCLUSION_CLAUSE_LIMIT
    clauses are refused.  A count that does not round cleanly raises
    InconsistentModelCountError.
    """
    n = formula.variable_count
    if n < 2:
        raise ReductionError("reduction needs at least 2 variables")
    k = len(formula.clauses)
    if k > INCLUSION_EXCLUSION_CLAUSE_LIMIT:
        raise ReductionError(
            f"model counting is limited to {INCLUSION_EXCLUSION_CLAUSE_LIMIT} clauses"
        )
    model = uniform_hmm("01")
    per_clause = [_falsifying_bits(c, n) for c in formula.clauses]
    terms = []
    for size in range(1, k + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(range(k), size):
            allowed = [
                tuple(sorted(set.intersection(*(set(per_clause[j][i]) for j in subset))))
                for i in range(n)
            ]
            if any(not a for a in allowed):
                continue
            g = _position_grammar(allowed)
            value = ucfg_likelihood(g, model, n, unambiguity_attested=True).value
            terms.append(sign * value)
    likelihood = math.fsum(terms)
    raw = (1 << n) * (1.0 - likelihood)
    rounded = round(raw)
    if abs(raw - rounded) > ROUNDING_RESIDUE_TOL * (1 << n):
        raise InconsistentModelCountError(
            f"inconsistent model count: 2^n (1 - likelihood) = {raw} is not near an integer"
        )
    return int(rounded)
