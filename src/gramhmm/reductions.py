"""#3SAT model counting through the grammar-likelihood engine.

Each clause turns into an unambiguous position-tracking grammar for the
assignments that falsify it; the union grammar over all clauses then
satisfies f_G(w) = number of clauses w falsifies, and the model count is
2^n * (1 - likelihood of the union language under the uniform HMM on
{0,1}).  That likelihood is computed by inclusion-exclusion over clause
subsets: the assignments falsifying every clause of a subset form again a
position grammar, which is unambiguous, so each term is one exact
likelihood.  The position grammars of many subsets sit side by side in one
grammar, as disjoint blocks of nonterminals, so one forward table yields
all their terms; a table holds at most FOLD_ENTRIES entries unless it holds
a single subset.  The cost is 2^k terms for k clauses, hence the clause
limit.  Used as a rich end-to-end self-test, not a competitive counter.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import inference
from .grammar import CnfGrammar, _union_fields
from .hmm import uniform_hmm
from .inference import FOLD_ENTRIES, NumericalError, _attested
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
            _check_clause(clause, self.variable_count)


def _check_clause(clause: Clause, n: int) -> None:
    """Raise ReductionError unless the clause has exactly 3 literals, each a
    nonzero variable index of absolute value at most n."""
    if len(clause) != 3:
        raise ReductionError(f"clause {clause} does not have exactly 3 literals")
    for lit in clause:
        if lit == 0 or abs(lit) > n:
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


def _forced_bits(literals: Iterable[int]) -> tuple[int, int]:
    """Bit masks of the positions that an assignment falsifying every literal
    (of one clause, or of all clauses of a subset) must set to '0' and to
    '1'; bit i is position i + 1.

    A positive literal forces bit '0' at its position, a negative one '1'.
    A position in both masks (a tautological clause, or clauses that no
    assignment falsifies together) has no allowed bit, so the language is
    empty.
    """
    zeros = ones = 0
    for lit in literals:
        if lit > 0:
            zeros |= 1 << (lit - 1)
        else:
            ones |= 1 << (-lit - 1)
    return zeros, ones


def _position_grammar(blocks: list[tuple[int, int]], n: int) -> CnfGrammar:
    """Right-linear CNF grammar with one block of nonterminals per pair of
    ``_forced_bits`` masks: from its start, block j derives the length-n
    strings with '0' at each position of its zeros mask and '1' at each
    position of its ones mask.

    Block j's nonterminal Q_i is index j*n + i - 1 and tracks position i, so
    block j starts at Q_1 = j*n; every block shares X0 and X1, the last two
    indices.  The grammar starts at block 0, and is deterministic per block,
    hence unambiguous from each block's start.  A position with no allowed
    bit simply gets no rule, which makes that block's language empty.  A
    single block is named Q1..Qn, X0, X1; block j > 0 appends _j.
    """
    return CnfGrammar(*_position_fields(blocks, n))


def _position_fields(blocks: list[tuple[int, int]], n: int) -> tuple:
    """``_position_grammar``'s constructor arguments, in field order."""
    x0 = len(blocks) * n
    names = [f"Q{i}_{j}" if j else f"Q{i}" for j in range(len(blocks)) for i in range(1, n + 1)]
    binary, lexical = [], [(x0, "0"), (x0 + 1, "1")]
    for j, (zeros, ones) in enumerate(blocks):
        # bits[i] lists the allowed bits at position i + 1, as (X index, symbol)
        bits = [[(x, s) for x, s, forced in ((x0, "0", ones), (x0 + 1, "1", zeros))
                 if not forced >> i & 1] for i in range(n)]
        q = j * n
        binary += [(q + i, x, q + i + 1) for i in range(n - 1) for x, _ in bits[i]]
        lexical += [(q + n - 1, s) for _, s in bits[n - 1]]
    return 0, tuple(binary), tuple(lexical), ("0", "1"), (*names, "X0", "X1")


def clause_complement_grammar(clause: Clause, n: int) -> CnfGrammar:
    """Unambiguous grammar for the length-n assignments falsifying the clause."""
    _check_clause(clause, n)
    return _position_grammar([_forced_bits(clause)], n)


def formula_to_cfg(formula: Cnf3Formula) -> CnfGrammar:
    """Union of the clause-complement grammars; f_G(w) counts falsified clauses.

    The grammar of clauses c1..ck is union(...union(G1, G2)..., Gk), with the
    names that nesting gives, but the clause grammars and the inner unions
    stay constructor arguments, and only the whole union is constructed.
    """
    n = formula.variable_count
    fields = [_position_fields([_forced_bits(clause)], n) for clause in formula.clauses]
    return CnfGrammar(*functools.reduce(_union_fields, fields))


def brute_force_model_count(formula: Cnf3Formula) -> int:
    """Exhaustive count of satisfying assignments.

    Assignment x sets variable v to bit v - 1 of x.  The assignments are
    checked in blocks of at most FOLD_ENTRIES indices, each clause by three
    vector operations on the block: a clause holds at x iff x has a bit of
    its positive literals set or a bit of its negative literals clear.  It
    shares no code with the grammar reduction.
    """
    n = formula.variable_count
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise ReductionError(f"brute force limited to {BRUTE_FORCE_VAR_LIMIT} variables")
    # (positive, negative) variable masks; a clause with both v and -v always holds
    masks = []
    for clause in formula.clauses:
        pos = sum({1 << (lit - 1) for lit in clause if lit > 0})
        neg = sum({1 << (-lit - 1) for lit in clause if lit < 0})
        if not pos & neg:
            masks.append((pos, neg))
    count = 0
    for lo in range(0, 1 << n, FOLD_ENTRIES):
        x = np.arange(lo, min(lo + FOLD_ENTRIES, 1 << n), dtype=np.int64)
        models = np.ones(len(x), dtype=bool)
        for pos, neg in masks:
            # (x ^ neg) has a bit of pos | neg set iff some literal holds
            np.logical_and(models, (x ^ neg) & (pos | neg), out=models)
        count += int(np.count_nonzero(models))
    return count


def _group_size(n: int) -> int:
    """Most subsets whose length-n position grammars share one grammar of
    group*n + 2 nonterminals: few enough that its table, n layers of one 1x1
    entry per nonterminal, holds at most FOLD_ENTRIES entries.  Nothing else
    caps a group: the grammar's rule index grows with its rules alone."""
    return max(1, (FOLD_ENTRIES // n - 2) // n)


def model_count_via_likelihood(formula: Cnf3Formula) -> int:
    """Model count as 2^n * (1 - likelihood of the falsifying language).

    The likelihood of the union of the clause-falsifying languages is the
    inclusion-exclusion sum, over nonempty clause subsets (by size, then in
    ``itertools.combinations`` order), of the exact likelihood of each
    subset's intersection language, added with ``math.fsum``; a subset whose
    language is empty adds nothing and is skipped.  The other subsets' position
    grammars are put side by side, ``_group_size(n)`` per grammar (1023 at 8
    variables), so that a table of n layers holds at most FOLD_ENTRIES entries
    unless it holds a single subset, and one ``forward_table`` per grammar
    gives each subset's term as ``ForwardTable.contract`` from its block's
    start.  A term above 1 proves the grammar ambiguous and raises
    AttestationViolatedError.  Under the uniform one-state HMM every term is
    an exact dyadic rational.

    Formulas with more than INCLUSION_EXCLUSION_CLAUSE_LIMIT clauses are
    refused.  A count that does not round cleanly raises
    InconsistentModelCountError.
    """
    n = formula.variable_count
    k = len(formula.clauses)
    if k > INCLUSION_EXCLUSION_CLAUSE_LIMIT:
        raise ReductionError(
            f"model counting is limited to {INCLUSION_EXCLUSION_CLAUSE_LIMIT} clauses"
        )
    forced = [_forced_bits(clause) for clause in formula.clauses]
    # (sign, masks) of each subset with a nonempty falsifying language
    live = []
    for size in range(1, k + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(forced, size):
            zeros = ones = 0
            for z, o in subset:
                zeros, ones = zeros | z, ones | o
            if not zeros & ones:
                live.append((sign, (zeros, ones)))
    model = uniform_hmm("01")
    group = _group_size(n)
    terms = []
    for at in range(0, len(live), group):
        chunk = live[at:at + group]
        table = inference.forward_table(_position_grammar([b for _, b in chunk], n), model, n)
        masses = table.contract(n, np.arange(0, len(chunk) * n, n))
        terms += [sign * _attested(value, n) for (sign, _), value in zip(chunk, masses.tolist())]
    likelihood = math.fsum(terms)
    raw = (1 << n) * (1.0 - likelihood)
    rounded = round(raw)
    if abs(raw - rounded) > ROUNDING_RESIDUE_TOL * (1 << n):
        raise InconsistentModelCountError(
            f"inconsistent model count: 2^n (1 - likelihood) = {raw} is not near an integer"
        )
    return int(rounded)
