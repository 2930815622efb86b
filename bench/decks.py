"""Seeded workload inputs: grammar, HMM and DIMACS files plus command decks.

Everything here is plain Python (no numpy), so the same seed gives
byte-identical files on any machine.  A deck holds a fixed number of
commands of each shape (grammar, mode, state count, length band); the seed
only picks the exact lengths, the HMM parameters, the formulas and the
order.  So every seed gives the same mix of command shapes and about the
same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("likelihood-narrow", "likelihood-wide", "sample", "count")

# Every deck holds at least this many commands, so that at least ten lie
# beyond the p90 latency.
MIN_COMMANDS = 100

# Leaf weights of factorized HMMs are k / WEIGHT_DENOMINATOR, so their
# exact weighted masses are integers over a power of 64.
WEIGHT_DENOMINATOR = 64


@dataclass(frozen=True)
class Grammar:
    """CNF grammar as data: the benchmark's own copy, independent of gramhmm."""

    name: str
    start: str
    binary: tuple[tuple[str, str, str], ...]
    lexical: tuple[tuple[str, str], ...]

    @property
    def alphabet(self) -> str:
        return "".join(sorted({s for _, s in self.lexical}))

    def text(self) -> str:
        lines = [f"start {self.start}"]
        lines += [f"{a} -> {b} {c}" for a, b, c in self.binary]
        lines += [f"{a} -> '{s}'" for a, s in self.lexical]
        return "\n".join(lines) + "\n"


def _grammar(name: str, start: str, rules: list[str]) -> Grammar:
    binary, lexical = [], []
    for rule in rules:
        lhs, rhs = (part.strip() for part in rule.split("->"))
        if rhs.startswith("'"):
            lexical.append((lhs, rhs[1]))
        else:
            b, c = rhs.split()
            binary.append((lhs, b, c))
    return Grammar(name, start, tuple(binary), tuple(lexical))


def union(name: str, g1: Grammar, g2: Grammar) -> Grammar:
    """Fresh start U copying both operands' start rules; derivation counts add."""
    binary, lexical = [], []
    for prefix, g in (("L", g1), ("R", g2)):
        for a, b, c in g.binary:
            binary.append((prefix + a, prefix + b, prefix + c))
            if a == g.start:
                binary.append(("U", prefix + b, prefix + c))
        for a, s in g.lexical:
            lexical.append((prefix + a, s))
            if a == g.start:
                lexical.append(("U", s))
    return Grammar(name, "U", tuple(binary), tuple(dict.fromkeys(lexical)))


def universal(alphabet: str) -> Grammar:
    rules = [f"S -> T{i} S" for i in range(len(alphabet))]
    rules += [f"S -> '{ch}'" for ch in alphabet]
    rules += [f"T{i} -> '{ch}'" for i, ch in enumerate(alphabet)]
    return _grammar(f"universal-{alphabet}", "S", rules)


DYCK = _grammar("dyck", "S", [
    "S -> A X", "X -> ')'", "X -> S Y", "X -> R S",
    "Y -> ')'", "Y -> R S", "A -> '('", "R -> ')'",
])
# The dense 3-nonterminal, 14-binary-rule grammar of acceptance check c08.
C08 = _grammar("c08", "S", [
    "S -> S S", "S -> A B", "S -> B A", "S -> A S", "S -> S B",
    "A -> A A", "A -> S B", "B -> B A", "B -> A S", "B -> S S",
    "A -> B B", "S -> B S", "B -> S A", "A -> S S",
    "S -> 'a'", "S -> 'b'", "A -> 'a'", "B -> 'b'", "A -> 'b'", "B -> 'a'",
])
SS = _grammar("ss", "S", ["S -> S S", "S -> 'a'", "S -> 'b'"])
UNIVERSAL_AB = universal("ab")
UNION_UU = union("union-uu", UNIVERSAL_AB, UNIVERSAL_AB)
UNION_DYCK_U = union("union-dyck-u", DYCK, universal("()"))


@dataclass(frozen=True)
class HmmSpec:
    """An HMM written to a file.

    ``weights`` is set for factorized models, A_sigma = (k_sigma / 64) P with
    a dense row-stochastic P; their weighted mass under any grammar is the
    1-state tree-weight sum with leaf weights k_sigma / 64.
    """

    name: str
    states: int
    alphabet: str
    initial: tuple[float, ...]
    matrices: dict = field(hash=False)
    weights: tuple[int, ...] | None = None

    def text(self) -> str:
        return json.dumps({
            "states": self.states,
            "alphabet": list(self.alphabet),
            "initial": list(self.initial),
            "matrices": {s: self.matrices[s] for s in self.alphabet},
        })


def _stochastic(rng: random.Random, n: int) -> list[float]:
    row = [rng.expovariate(1.0) for _ in range(n)]
    total = sum(row)
    return [x / total for x in row]


def factorized_hmm(rng: random.Random, name: str, n: int, alphabet: str,
                   weights: tuple[int, ...] | None = None) -> HmmSpec:
    if weights is None:
        k = rng.randint(WEIGHT_DENOMINATOR // 4, 3 * WEIGHT_DENOMINATOR // 4)
        weights = (k, WEIGHT_DENOMINATOR - k)
    p = [_stochastic(rng, n) for _ in range(n)]
    matrices = {
        s: [[k / WEIGHT_DENOMINATOR * x for x in row] for row in p]
        for s, k in zip(alphabet, weights)
    }
    return HmmSpec(name, n, alphabet, tuple(_stochastic(rng, n)), matrices, weights)


def random_hmm(rng: random.Random, name: str, n: int, alphabet: str) -> HmmSpec:
    rows = [_stochastic(rng, n * len(alphabet)) for _ in range(n)]
    matrices = {
        s: [row[i * n:(i + 1) * n] for row in rows] for i, s in enumerate(alphabet)
    }
    return HmmSpec(name, n, alphabet, tuple(_stochastic(rng, n)), matrices)


@dataclass(frozen=True)
class Formula:
    name: str
    variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        lines = [f"p cnf {self.variables} {len(self.clauses)}"]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        return "\n".join(lines) + "\n"


def random_formula(rng: random.Random, name: str, n: int, k: int) -> Formula:
    clauses = []
    for _ in range(k):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(name, n, tuple(clauses))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    kind: str            # likelihood | sample | approx | reduce3sat
    argv: tuple[str, ...]
    grammar: Grammar | None = None
    hmm: HmmSpec | None = None
    formula: Formula | None = None
    length: int = 0
    mode: str = ""
    count: int = 0
    epsilon: float = 0.0
    bound: int = 0
    trees: bool = False
    shape: int = 0       # index of the command's row in its workload table


@dataclass
class Deck:
    commands: list[Command]
    files: dict[str, str]  # relative file name -> contents


def _pick(rng: random.Random, band: tuple[int, int], even: bool = False) -> int:
    lo, hi = band
    if even:
        return 2 * rng.randint((lo + 1) // 2, hi // 2)
    return rng.randint(lo, hi)


# Command shapes with their copies per deck.  Lengths are skewed short so
# that a pass over about 100 commands takes a few seconds; the long shapes
# appear once, at fixed lengths.  Shapes are grouped by cost so that the
# median and p90 fall inside a group of like commands, not between two.
# likelihood-narrow: (grammar, mode, length band, copies); 1-4 states.  The
# c08 command at L=246 is past L~244, where its weighted mass leaves float64
# range.  Median: the Dyck L 54-56 group; p90: the c08 L 48-50 group.
NARROW = [
    (UNIVERSAL_AB, "ucfg", (50, 54), 20),
    (UNIVERSAL_AB, "weighted", (60, 64), 16), (UNIVERSAL_AB, "upto", (60, 64), 4),
    (DYCK, "ucfg", (54, 56), 18), (DYCK, "weighted", (54, 56), 10), (DYCK, "upto", (54, 56), 3),
    (UNIVERSAL_AB, "ucfg", (96, 100), 10), (UNIVERSAL_AB, "weighted", (96, 100), 6),
    (DYCK, "ucfg", (66, 70), 6),
    (C08, "weighted", (48, 50), 14),
    (C08, "weighted", (246, 246), 1), (C08, "weighted", (88, 88), 1),
    (DYCK, "ucfg", (176, 176), 1), (UNIVERSAL_AB, "ucfg", (270, 270), 1),
    (UNIVERSAL_AB, "weighted", (300, 300), 1),
]
NARROW_STATES = (1, 2, 3, 4)

# likelihood-wide: (grammar, states, length band, copies); all --mode weighted.
# Median: the c08 n=48 L=25 group; p90: the c08 n=64 L=30 group.
WIDE = [
    (UNION_UU, 32, (24, 28), 20), (C08, 32, (24, 26), 15),
    (C08, 48, (25, 25), 30),
    (UNION_UU, 48, (32, 36), 9), (C08, 32, (36, 40), 8),
    (C08, 64, (30, 30), 14),
    (C08, 64, (60, 60), 1), (C08, 32, (60, 60), 1), (UNION_UU, 64, (60, 60), 1),
    (C08, 48, (52, 52), 1),
]

# sample: (grammar, states, length, count, emit trees, copies); one in eight
# commands emits trees.  Median: the L=8, 300-draw group; p90: the L=8 tree
# group (building and dumping trees costs more than the draws).
SAMPLE = [
    (DYCK, 2, 6, 200, False, 10), (SS, 4, 6, 200, False, 10),
    (DYCK, 8, 8, 200, False, 9), (SS, 2, 8, 200, False, 9),
    (DYCK, 4, 8, 300, False, 14), (SS, 4, 8, 300, False, 14),
    (DYCK, 4, 10, 300, False, 7), (SS, 2, 10, 300, False, 6),
    (DYCK, 8, 16, 200, False, 4), (SS, 4, 16, 200, False, 4),
    (SS, 8, 8, 200, True, 12),
    (DYCK, 16, 64, 200, False, 1), (DYCK, 2, 6, 2000, False, 1), (DYCK, 2, 40, 200, False, 1),
    (SS, 2, 6, 1000, False, 1), (SS, 8, 32, 200, True, 1),
]

# count: approx (grammar, length band, epsilon, copies) and reduce3sat
# (variables, clause band, copies); one command in four is reduce3sat.
# Median: the L=8 approx group; p90: the L=8, epsilon=0.1 group.
APPROX = [
    (UNION_UU, (8, 8), 0.2, 27), (UNION_DYCK_U, (8, 8), 0.2, 27),
    (UNION_UU, (9, 9), 0.2, 2), (UNION_DYCK_U, (9, 9), 0.2, 2),
    (UNION_UU, (10, 10), 0.2, 1), (UNION_DYCK_U, (10, 10), 0.2, 1),
    (UNION_UU, (12, 12), 0.2, 1), (UNION_DYCK_U, (13, 13), 0.2, 1), (UNION_UU, (16, 16), 0.2, 1),
    (UNION_UU, (8, 8), 0.1, 11), (UNION_DYCK_U, (10, 10), 0.1, 1),
]
REDUCE3SAT = [(8, (4, 4), 20), (8, (5, 5), 1), (8, (8, 8), 1), (9, (5, 5), 3)]
APPROX_STATES = (1, 2, 3)
AMBIGUITY_BOUND = 2


def build_deck(workload: str, seed: int) -> Deck:
    """Generate the workload's files and shuffled command list from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}

    def grammar_file(g: Grammar) -> str:
        name = f"{g.name}.grm"
        files[name] = g.text()
        return name

    def hmm_file(h: HmmSpec) -> str:
        name = f"{h.name}.hmm.json"
        files[name] = h.text()
        return name

    def likelihood(g: Grammar, h: HmmSpec, mode: str, length: int, shape: int) -> Command:
        argv = ["likelihood", "--grammar", grammar_file(g), "--hmm", hmm_file(h),
                "--length", str(length), "--mode", mode]
        if mode != "weighted":
            argv.append("--attest-unambiguous")
        return Command("likelihood", tuple(argv), grammar=g, hmm=h, length=length, mode=mode,
                       shape=shape)

    def tag(alphabet: str) -> str:
        return "ab" if alphabet == "ab" else "paren"

    commands: list[Command] = []
    if workload == "likelihood-narrow":
        pool = {}
        for alphabet in ("ab", "()"):
            for n in NARROW_STATES:
                # the 1-state "()" model is the uniform HMM of the Dyck check
                weights = (32, 32) if (alphabet, n) == ("()", 1) else None
                pool[alphabet, n] = factorized_hmm(
                    rng, f"narrow-{tag(alphabet)}-{n}", n, alphabet, weights)
        for shape, (g, mode, band, copies) in enumerate(NARROW):
            for _ in range(copies):
                h = pool[g.alphabet, rng.choice(NARROW_STATES)]
                commands.append(likelihood(g, h, mode, _pick(rng, band, even=g is DYCK), shape))
    elif workload == "likelihood-wide":
        pool = {n: factorized_hmm(rng, f"wide-{n}", n, "ab") for n in (32, 48, 64)}
        for shape, (g, n, band, copies) in enumerate(WIDE):
            for _ in range(copies):
                commands.append(likelihood(g, pool[n], "weighted", _pick(rng, band), shape))
    elif workload == "sample":
        pool = {}
        for g in (DYCK, SS):
            for n in (2, 4, 8, 16):
                pool[g.alphabet, n] = random_hmm(rng, f"sample-{tag(g.alphabet)}-{n}", n, g.alphabet)
        for shape, (g, n, length, count, trees, copies) in enumerate(SAMPLE):
            h = pool[g.alphabet, n]
            for _ in range(copies):
                argv = ["sample", "--grammar", grammar_file(g), "--hmm", hmm_file(h),
                        "--length", str(length), "--count", str(count),
                        "--seed", str(rng.randrange(2**31))]
                if trees:
                    argv.append("--emit-trees")
                commands.append(Command("sample", tuple(argv), grammar=g, hmm=h, length=length,
                                        count=count, trees=trees, shape=shape))
    else:
        pool = {}
        for alphabet in ("ab", "()"):
            for n in APPROX_STATES:
                pool[alphabet, n] = factorized_hmm(rng, f"count-{tag(alphabet)}-{n}", n, alphabet)
        for shape, (g, band, epsilon, copies) in enumerate(APPROX):
            for _ in range(copies):
                h = pool[g.alphabet, rng.choice(APPROX_STATES)]
                length = _pick(rng, band)
                argv = ["approx", "--grammar", grammar_file(g), "--hmm", hmm_file(h),
                        "--length", str(length), "--epsilon", str(epsilon),
                        "--ambiguity-bound", str(AMBIGUITY_BOUND),
                        "--seed", str(rng.randrange(2**31))]
                commands.append(Command("approx", tuple(argv), grammar=g, hmm=h, length=length,
                                        epsilon=epsilon, bound=AMBIGUITY_BOUND, shape=shape))
        for shape, (n, band, copies) in enumerate(REDUCE3SAT, start=len(APPROX)):
            for _ in range(copies):
                f = random_formula(rng, f"formula-{len(commands):03d}", n, _pick(rng, band))
                files[f"{f.name}.cnf"] = f.text()
                commands.append(Command("reduce3sat", ("reduce3sat", "--cnf", f"{f.name}.cnf",
                                                       "--count"), formula=f, shape=shape))
    rng.shuffle(commands)
    return Deck(commands, files)


def write_inputs(deck: Deck, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(deck.files.items()):
        (directory / name).write_text(text, encoding="utf-8")


def resolve(argv: tuple[str, ...], directory: Path) -> list[str]:
    """Turn the deck's relative file arguments into paths under directory."""
    file_flags = {"--grammar", "--hmm", "--cnf"}
    return [str(directory / a) if prev in file_flags else a
            for prev, a in zip(("",) + argv[:-1], argv)]
