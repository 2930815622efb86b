"""Chomsky-form grammars: parsing, the rule index, derivation counting,
unions.

Nonterminals are interned to 0-based integer indices in order of first
appearance in the rule list.  The number of derivation trees of a length-L
string can grow like the Catalan numbers, so every count returned is exact:
``derivation_counts`` fills one CYK chart, in float64 while it provably
holds integers exactly, and otherwise fills the same chart again over
Python's arbitrary-precision integers.
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
    "derivation_counts",
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


def _unwritable(name) -> bool:
    """Whether a nonterminal name would write a line that reads back
    differently, or not at all."""
    return (not isinstance(name, str) or not name or name == "start"
            or name[0] in "#'" or name.split() != [name])


@dataclass(frozen=True)
class CnfGrammar:
    """A context-free grammar in Chomsky normal form.

    ``binary_rules`` holds (a, b, c) triples meaning a -> b c and
    ``lexical_rules`` holds (a, sigma) pairs meaning a -> sigma, with
    nonterminals as indices into ``nonterminal_names``.  Rule tuples and
    the alphabet are stored sorted, so iteration order is deterministic and
    grammars that differ only in declared order compare equal.  Names and
    symbols are checked to be ones ``format_grammar`` writes back as
    themselves.

    The rule index that every kernel reads is built here, as three
    read-only arrays: ``pairs`` (P, 2), the sorted distinct children pairs
    (b, c); ``rules`` (R, 2), one row (p, a) per binary rule a -> pairs[p],
    sorted by pair, then parent; and ``emits`` (|alphabet|, N) bool, true
    at [i, a] iff a emits ``alphabet[i]``.
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
        names = self.nonterminal_names
        if len(set(names)) != n:
            raise GrammarError("duplicate nonterminal name")
        try:
            text = " " + " ".join(names)
        except TypeError:  # a name that is not a str
            text = ""
        # the names split back out of the joined text iff none is empty or
        # holds whitespace; then a name starts right after a space
        if (text.split() != list(names) or "start" in names
                or " #" in text or " '" in text):
            bad = next(name for name in names if _unwritable(name))
            raise GrammarError(f"nonterminal name {bad!r} cannot be written to a grammar file")
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
        # one bound over all the rules; the first bad rule is looked for only
        # when a bound fails
        binary, lexical = self.binary_rules, self.lexical_rules
        columns = tuple(zip(*binary))
        if binary and not (min(map(min, columns)) >= 0 and max(map(max, columns)) < n):
            a, b, c = next(r for r in binary if not all(0 <= x < n for x in r))
            raise GrammarError(f"binary rule ({a},{b},{c}) references undeclared nonterminal")
        heads, emitted = zip(*lexical) if lexical else ((), ())
        if heads and not (min(heads) >= 0 and max(heads) < n and sigma.issuperset(emitted)):
            for a, s in lexical:
                if not 0 <= a < n:
                    raise GrammarError(f"lexical rule ({a},{s!r}) references undeclared nonterminal")
                if s not in sigma:
                    raise GrammarError(f"lexical rule emits undeclared terminal {s!r}")
        object.__setattr__(self, "binary_rules", tuple(sorted(self.binary_rules)))
        object.__setattr__(self, "lexical_rules", tuple(sorted(self.lexical_rules)))
        object.__setattr__(self, "alphabet", tuple(sorted(self.alphabet)))

        # the rule index, as plain attributes, not fields, so it is neither a
        # constructor parameter nor part of equality, hash or repr
        by_pair: dict[tuple[int, int], list[int]] = {}
        for a, b, c in self.binary_rules:
            by_pair.setdefault((b, c), []).append(a)
        pairs = sorted(by_pair)
        rules = [x for p, pair in enumerate(pairs) for a in by_pair[pair] for x in (p, a)]
        column = {s: i * n for i, s in enumerate(self.alphabet)}  # each symbol's flat row offset
        emits = np.zeros((len(self.alphabet), n), dtype=bool)
        emits.put([column[s] + a for a, s in self.lexical_rules], True)
        for name, index in (("pairs", np.array(pairs, dtype=np.intp).reshape(-1, 2)),
                            ("rules", np.array(rules, dtype=np.intp).reshape(-1, 2)),
                            ("emits", emits)):
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
    alphabet: set[str] = set()
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
            alphabet.add(tok[1])
            lexical.append((lhs, tok[1]))
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


def derivation_counts(g: CnfGrammar, strings: list[str]) -> list[int]:
    """Each equal-length string's number of derivation trees from the start
    symbol, as a Python int; 0 iff the string is not in the language.

    Each distinct string is counted once.  The CYK chart is filled one span
    width at a time, vectorized over (start position, string): for every
    split, the left and right child columns of each children pair of
    ``CnfGrammar.pairs`` are multiplied, and the products are scatter-added
    into the pairs' parents.  The chart is first filled in float64, which is
    exact while every entry is below 2^53: the entries are sums of products
    of nonnegative integers and rounding is monotone, so a computed entry is
    at least any rounded partial term, and a chart whose computed maximum
    stays below 2^53 has made no rounding at all.  When that guard trips, the
    same chart is filled again in object arrays of Python ints.
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
    symbols = np.array([ord(s) for s in g.alphabet], dtype=np.uint32)
    foreign = ~np.isin(codes, symbols)
    if foreign.any():
        # report what a per-string loop would: the first bad symbol of the
        # first bad string in input order
        w = strings[min(first[foreign.any(axis=1)])]
        raise GrammarError(f"symbol {next(ch for ch in w if ch not in g.alphabet)!r} "
                           "not in grammar alphabet")

    # each distinct children pair (b, c) is multiplied once per split, and the
    # product is added into every parent a of a rule a -> b c, by is_rule[p, a]
    B, C = g.pairs.T
    leaves = g.emits[np.searchsorted(symbols, codes)].transpose(1, 0, 2)
    is_rule = np.zeros((len(B), g.nonterminal_count), dtype=bool)
    is_rule[tuple(g.rules.T)] = True
    for kind in (float, object):
        # cell is (start, string, nonterminal) for the spans of one width; left[l]
        # and right[l] keep the columns of width l that each pair's b and c read
        cell, scatter = leaves.astype(kind), is_rule.astype(kind)
        left, right = {}, {}
        for width in range(2, L + 1):
            left[width - 1], right[width - 1] = cell[..., B], cell[..., C]
            spans = L - width + 1
            acc = np.zeros((spans, len(words), len(B)), dtype=kind)
            for m in range(1, width):
                acc += left[m][:spans] * right[width - m][m:m + spans]
            cell = acc @ scatter
            if kind is float and not cell.max() < EXACT_FLOAT_LIMIT:
                break
        else:
            # the chart is exact: float64 below the guard, or Python ints
            break
    # below 2^53 a float64 is an int64 exactly; an object chart holds Python ints
    counts = cell[0, :, g.start].astype(np.int64 if kind is float else object).tolist()
    return [counts[i] for i in inverse.tolist()]


def union(g1: CnfGrammar, g2: CnfGrammar) -> CnfGrammar:
    """Union grammar, with derivation counts that add from length 2.

    A fresh start symbol receives a copy of every rule of each operand's
    start symbol (binary and lexical), with the operands' nonterminals
    disjointly renamed; all original rules are retained.  Then
    L = L1 | L2, and f(w) = f1(w) + f2(w) for |w| >= 2.  For a single
    symbol the two start copies of a shared lexical rule merge into one
    rule, so f(w) = max(f1(w), f2(w)): derivation_counts(union(g, g), ["a"])
    is [1] when g derives "a".
    """
    return CnfGrammar(*_union_fields(_fields(g1), _fields(g2)))


def _fields(g: CnfGrammar) -> tuple:
    """The grammar's constructor arguments, in field order."""
    return g.start, g.binary_rules, g.lexical_rules, g.alphabet, g.nonterminal_names


def _union_fields(first: tuple, second: tuple) -> tuple:
    """``union``'s constructor arguments from its operands' (``_fields``), so
    that a fold of unions constructs only its last grammar."""
    # Prefixing a fixed distinct letter keeps each side's renaming injective
    # and the two sides disjoint; the fresh start avoids both prefixes.
    names, alphabet = ["U0"], set()
    binary: list[tuple[int, int, int]] = []
    lexical: list[tuple[int, str]] = []
    # an operand's nonterminal j is j + off in the union
    off = 1
    for (start, rules, emitted, symbols, nonterminals), prefix in ((first, "L"), (second, "R")):
        names += [prefix + name for name in nonterminals]
        alphabet.update(symbols)
        for a, b, c in rules:
            binary.append((a + off, b + off, c + off))
            if a == start:
                binary.append((0, b + off, c + off))
        for a, s in emitted:
            lexical.append((a + off, s))
            if a == start:
                lexical.append((0, s))
        off += len(nonterminals)
    # binary start-rule copies stay distinct under the disjoint renaming, but
    # every lexical copy is (0, symbol), so the set merges a symbol that both
    # starts emit
    return 0, tuple(binary), tuple(set(lexical)), tuple(alphabet), tuple(names)


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
