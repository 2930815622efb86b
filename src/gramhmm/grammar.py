"""Chomsky-form grammars: parsing, the rule index, derivation counting,
live products, unions.

Nonterminals are interned to 0-based integer indices in order of first
appearance in the rule list.  The number of derivation trees of a length-L
string can grow like the Catalan numbers, so every count returned is exact:
``derivation_count`` counts with Python's arbitrary-precision integers, and
the batched ``derivation_counts`` uses a float64 chart only while it provably
holds integers exactly, falling back to ``derivation_count`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrammarError",
    "GrammarSyntaxError",
    "CnfGrammar",
    "parse_grammar",
    "format_grammar",
    "derivation_count",
    "derivation_counts",
    "live_products",
    "union",
    "dyck_grammar",
    "universal_grammar",
]

# float64 represents every integer below this exactly.
EXACT_FLOAT_LIMIT = 2.0**53


class GrammarError(ValueError):
    """Invalid grammar structure or use (bad symbol, bad rule, guard)."""


class GrammarSyntaxError(GrammarError):
    """Malformed grammar file; carries line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CnfGrammar:
    """A context-free grammar in Chomsky normal form.

    ``binary_rules`` holds (a, b, c) triples meaning a -> b c and
    ``lexical_rules`` holds (a, sigma) pairs meaning a -> sigma, with
    nonterminals as indices into ``nonterminal_names``.  Rule tuples are
    stored sorted so iteration order is deterministic.  Names and symbols
    are checked to be ones ``format_grammar`` writes back as themselves.

    The rule index that every kernel reads is built here: ``symbols``, the
    sorted alphabet, and three read-only arrays: ``pairs`` (P, 2), the
    sorted distinct children pairs (b, c); ``parents`` (P, N) bool, true at
    [p, a] iff a -> pairs[p] is a rule; and ``emits`` (|alphabet|, N) bool,
    true at [i, a] iff a emits ``symbols[i]``.
    """

    start: int
    binary_rules: tuple[tuple[int, int, int], ...]
    lexical_rules: tuple[tuple[int, str], ...]
    alphabet: tuple[str, ...]
    nonterminal_names: tuple[str, ...]

    def __post_init__(self):
        n = self.nonterminal_count
        if n <= 0:
            raise GrammarError("grammar must declare at least one nonterminal")
        if not (0 <= self.start < n):
            raise GrammarError("start symbol index out of range")
        if len(set(self.nonterminal_names)) != n:
            raise GrammarError("duplicate nonterminal name")
        for name in self.nonterminal_names:
            # each would write a line that reads back differently, or not at all
            if (not isinstance(name, str) or not name or name == "start"
                    or name[0] in "#'" or any(ch.isspace() for ch in name)):
                raise GrammarError(
                    f"nonterminal name {name!r} cannot be written to a grammar file")
        if not self.binary_rules and not self.lexical_rules:
            raise GrammarError("grammar has no rules")
        if len(set(self.binary_rules)) != len(self.binary_rules):
            raise GrammarError("duplicate binary rule")
        if len(set(self.lexical_rules)) != len(self.lexical_rules):
            raise GrammarError("duplicate lexical rule")
        if not all(isinstance(s, str) and len(s) == 1 for s in self.alphabet):
            raise GrammarError("alphabet symbols must be single characters")
        if any(s.isspace() for s in self.alphabet):
            raise GrammarError("alphabet symbols may not be whitespace")
        sigma = set(self.alphabet)
        if len(sigma) != len(self.alphabet):
            raise GrammarError("duplicate symbol in alphabet")
        for a, b, c in self.binary_rules:
            if not all(0 <= x < n for x in (a, b, c)):
                raise GrammarError(f"binary rule ({a},{b},{c}) references undeclared nonterminal")
        for a, s in self.lexical_rules:
            if not 0 <= a < n:
                raise GrammarError(f"lexical rule ({a},{s!r}) references undeclared nonterminal")
            if s not in sigma:
                raise GrammarError(f"lexical rule emits undeclared terminal {s!r}")
        object.__setattr__(self, "binary_rules", tuple(sorted(self.binary_rules)))
        object.__setattr__(self, "lexical_rules", tuple(sorted(self.lexical_rules)))

        # the rule index, as plain attributes, not fields, so it is neither a
        # constructor parameter nor part of equality, hash or repr
        pairs = sorted({(b, c) for _, b, c in self.binary_rules})
        row = {pair: p for p, pair in enumerate(pairs)}
        parents = np.zeros((len(pairs), n), dtype=bool)
        for a, b, c in self.binary_rules:
            parents[row[b, c], a] = True
        symbols = tuple(sorted(self.alphabet))
        object.__setattr__(self, "symbols", symbols)
        emits = np.zeros((len(symbols), n), dtype=bool)
        for a, s in self.lexical_rules:
            emits[symbols.index(s), a] = True
        for name, index in (("pairs", np.array(pairs, dtype=np.intp).reshape(-1, 2)),
                            ("parents", parents), ("emits", emits)):
            index.setflags(write=False)
            object.__setattr__(self, name, index)

    @property
    def nonterminal_count(self) -> int:
        return len(self.nonterminal_names)

    @property
    def size(self) -> int:
        return len(self.binary_rules) + len(self.lexical_rules)


def parse_grammar(text: str) -> CnfGrammar:
    """Parse the line-oriented grammar file format.

    Format: '#' comment lines, exactly one ``start NAME`` header, then rule
    lines ``A -> B C`` (binary) or ``A -> 'x'`` (lexical, single-character
    terminal).  Duplicate rule lines are an error.
    """
    start_name = None
    raw_rules: list[tuple[int, list[str]]] = []  # (line_no, tokens)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if tokens[0] == "start":
            if start_name is not None:
                raise GrammarSyntaxError("duplicate 'start' header", line_no)
            if len(tokens) != 2:
                raise GrammarSyntaxError("'start' header takes exactly one name", line_no)
            start_name = tokens[1]
            continue
        if start_name is None:
            raise GrammarSyntaxError("rule before 'start' header", line_no)
        raw_rules.append((line_no, tokens))
    if start_name is None:
        raise GrammarSyntaxError("missing 'start' header", max(1, text.count("\n") + 1))

    names: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in names:
            names[name] = len(names)
        return names[name]

    binary: list[tuple[int, int, int]] = []
    lexical: list[tuple[int, str]] = []
    alphabet: list[str] = []
    seen_lines: set[tuple[str, ...]] = set()
    for line_no, tokens in raw_rules:
        if len(tokens) < 3 or tokens[1] != "->":
            raise GrammarSyntaxError("expected 'A -> ...'", line_no)
        key = tuple(tokens)
        if key in seen_lines:
            raise GrammarSyntaxError("duplicate rule", line_no)
        seen_lines.add(key)
        lhs = intern(tokens[0])
        rhs = tokens[2:]
        if len(rhs) == 1:
            tok = rhs[0]
            if not (len(tok) == 3 and tok[0] == "'" and tok[-1] == "'"):
                raise GrammarSyntaxError(
                    "unary right-hand side must be a quoted single-character terminal",
                    line_no, column=len(tokens[0]) + 4,
                )
            sym = tok[1]
            if sym not in alphabet:
                alphabet.append(sym)
            lexical.append((lhs, sym))
        elif len(rhs) == 2:
            if any(t.startswith("'") for t in rhs):
                raise GrammarSyntaxError("terminals may not appear in binary rules", line_no)
            binary.append((lhs, intern(rhs[0]), intern(rhs[1])))
        else:
            raise GrammarSyntaxError("not Chomsky form: right-hand side has more than 2 symbols", line_no)

    if start_name not in names:
        raise GrammarSyntaxError(f"undeclared start symbol {start_name!r}", 1)
    ordered = sorted(names, key=names.get)
    return CnfGrammar(
        start=names[start_name],
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=tuple(alphabet),
        nonterminal_names=tuple(ordered),
    )


def format_grammar(g: CnfGrammar) -> str:
    """Serialize to the grammar file format; reparses to the same rules."""
    lines = [f"start {g.nonterminal_names[g.start]}"]
    for a, b, c in g.binary_rules:
        lines.append(f"{g.nonterminal_names[a]} -> {g.nonterminal_names[b]} {g.nonterminal_names[c]}")
    for a, s in g.lexical_rules:
        lines.append(f"{g.nonterminal_names[a]} -> '{s}'")
    return "\n".join(lines) + "\n"


def derivation_count(g: CnfGrammar, w: str) -> int:
    """Number of derivation trees of w from the start symbol; 0 iff w is not in the language.

    Exact, over Python integers, by the standard CYK chart over substrings:
    a span's count for nonterminal a is the sum, over splits and binary
    rules a -> b c, of the products of the two child span counts.  The
    oracles' reference count, and the fallback of ``derivation_counts``.
    """
    if len(w) < 1:
        raise GrammarError("string must be nonempty")
    L = len(w)
    # the rule index's rows as lookups: symbol -> emitters, pair -> parents
    emitters = {s: np.flatnonzero(row).tolist() for s, row in zip(g.symbols, g.emits)}
    by_children = {(b, c): np.flatnonzero(row).tolist()
                   for (b, c), row in zip(g.pairs.tolist(), g.parents)}
    for ch in w:
        if ch not in emitters:
            raise GrammarError(f"symbol {ch!r} not in grammar alphabet")
    # chart[(i, j)] maps nonterminal -> count for substring w[i:j]
    chart: dict[tuple[int, int], dict[int, int]] = {}
    for i, ch in enumerate(w):
        chart[(i, i + 1)] = dict.fromkeys(emitters[ch], 1)
    for span in range(2, L + 1):
        for i in range(L - span + 1):
            j = i + span
            cell = {}
            for m in range(i + 1, j):
                left = chart[(i, m)]
                right = chart[(m, j)]
                if not left or not right:
                    continue
                for b, cb in left.items():
                    for c, cc in right.items():
                        parents = by_children.get((b, c))
                        if parents:
                            prod = cb * cc
                            for a in parents:
                                cell[a] = cell.get(a, 0) + prod
            chart[(i, j)] = cell
    return chart[(0, L)].get(g.start, 0)


def derivation_counts(g: CnfGrammar, strings: list[str]) -> list[int]:
    """``[derivation_count(g, w) for w in strings]`` for equal-length strings.

    Each distinct string is counted once.  The chart is filled one span
    width at a time, vectorized over (start position, string): for every
    split, the left and right child columns of each children pair of
    ``CnfGrammar.pairs`` are multiplied, and the products are scatter-added
    into the pairs' parents.  The chart is float64 and exact while every
    entry is below 2^53: the entries are sums of products of nonnegative
    integers and rounding is monotone, so a computed entry is at least any
    rounded partial term, and a chart whose computed maximum stays below
    2^53 has made no rounding at all.  When that guard trips, the batch's
    distinct strings are counted with the big-integer ``derivation_count``
    instead.
    """
    if not strings:
        return []
    L = len(strings[0])
    if any(len(w) == 0 for w in strings):
        raise GrammarError("string must be nonempty")
    if any(len(w) != L for w in strings):
        raise GrammarError("strings must have equal lengths")
    words, first, inverse = np.unique(np.array(strings, dtype=f"<U{L}"),
                                      return_index=True, return_inverse=True)
    codes = words.view(np.uint32).reshape(len(words), L)
    symbols = np.array([ord(s) for s in g.symbols], dtype=np.uint32)
    foreign = ~np.isin(codes, symbols)
    if foreign.any():
        # report what a per-string loop would: the first bad symbol of the
        # first bad string in input order
        w = strings[min(first[foreign.any(axis=1)])]
        raise GrammarError(f"symbol {next(ch for ch in w if ch not in g.alphabet)!r} "
                           "not in grammar alphabet")

    # each distinct children pair (b, c) is multiplied once per split, and
    # the product is added into every parent a of a rule a -> b c
    B, C = g.pairs.T
    scatter = g.parents.astype(float)
    # cell is (start, string, nonterminal) for the spans of one width; left[l]
    # and right[l] keep the columns of width l that each pair's b and c read
    cell = g.emits[np.searchsorted(symbols, codes)].transpose(1, 0, 2).astype(float)
    left, right = {}, {}
    for width in range(2, L + 1):
        left[width - 1], right[width - 1] = cell[..., B], cell[..., C]
        spans = L - width + 1
        acc = np.zeros((spans, len(words), len(B)))
        for m in range(1, width):
            acc += left[m][:spans] * right[width - m][m:m + spans]
        cell = acc @ scatter
        if not cell.max() < EXACT_FLOAT_LIMIT:
            counts = [derivation_count(g, strings[i]) for i in first]
            break
    else:
        counts = cell[0, :, g.start].astype(np.int64).tolist()
    return [counts[i] for i in inverse.tolist()]


def live_products(live: np.ndarray, l: int, B: np.ndarray, C: np.ndarray):
    """The (split, pair) products of span length l whose children can both derive.

    ``live`` is a bool array whose row m - 1 tells, for m = 1..l-1, which
    nonterminals derive some string of length m (``ForwardTable.live``),
    and children pair r is (B[r], C[r]).  Returns the index arrays (m - 1, r)
    of every split m in 1..l-1 and pair r with live[m-1, B[r]] and
    live[l-m-1, C[r]], ordered by ascending split, then pair.
    """
    return np.nonzero(live[:l - 1, B] & live[l - 2::-1, C])


def union(g1: CnfGrammar, g2: CnfGrammar) -> CnfGrammar:
    """Union grammar, with derivation counts that add from length 2.

    A fresh start symbol receives a copy of every rule of each operand's
    start symbol (binary and lexical), with the operands' nonterminals
    disjointly renamed; all original rules are retained.  Then
    L = L1 | L2, and f(w) = f1(w) + f2(w) for |w| >= 2.  For a single
    symbol the two start copies of a shared lexical rule merge into one
    rule, so f(w) = max(f1(w), f2(w)): derivation_count(union(g, g), "a")
    is 1 when g derives "a".
    """
    # Prefixing a fixed distinct letter keeps each side's renaming injective
    # and the two sides disjoint; the fresh start avoids both prefixes.
    names = ["U0"]
    left = {i: len(names) + i for i in range(g1.nonterminal_count)}
    names += [f"L{nm}" for nm in g1.nonterminal_names]
    off = len(names)
    right = {i: off + i for i in range(g2.nonterminal_count)}
    names += [f"R{nm}" for nm in g2.nonterminal_names]

    binary: list[tuple[int, int, int]] = []
    lexical: list[tuple[int, str]] = []
    for g, ren in ((g1, left), (g2, right)):
        for a, b, c in g.binary_rules:
            binary.append((ren[a], ren[b], ren[c]))
            if a == g.start:
                binary.append((0, ren[b], ren[c]))
        for a, s in g.lexical_rules:
            lexical.append((ren[a], s))
            if a == g.start:
                lexical.append((0, s))

    alphabet = list(g1.alphabet)
    for s in g2.alphabet:
        if s not in alphabet:
            alphabet.append(s)
    # binary start-rule copies stay distinct under the disjoint renaming, but
    # every lexical copy is (0, symbol), so the set merges a symbol that both
    # starts emit
    return CnfGrammar(
        start=0,
        binary_rules=tuple(binary),
        lexical_rules=tuple(set(lexical)),
        alphabet=tuple(alphabet),
        nonterminal_names=tuple(names),
    )


def dyck_grammar() -> CnfGrammar:
    """Unambiguous CNF grammar for nonempty balanced parentheses over {(,)}."""
    return parse_grammar(
        "start S\n"
        "S -> A X\n"
        "X -> ')'\n"
        "X -> S Y\n"
        "X -> R S\n"
        "Y -> ')'\n"
        "Y -> R S\n"
        "A -> '('\n"
        "R -> ')'\n"
    )


def universal_grammar(alphabet: str) -> CnfGrammar:
    """Unambiguous right-linear grammar for all nonempty strings over the alphabet."""
    if not alphabet:
        raise GrammarError("alphabet must be nonempty")
    lines = ["start S"]
    for i, ch in enumerate(alphabet):
        lines.append(f"S -> T{i} S")
    for ch in alphabet:
        lines.append(f"S -> '{ch}'")
    for i, ch in enumerate(alphabet):
        lines.append(f"T{i} -> '{ch}'")
    return parse_grammar("\n".join(lines))
