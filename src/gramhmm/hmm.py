"""Observable-operator hidden Markov models.

A model is an initial distribution pi over hidden states together with one
nonnegative matrix A_sigma per symbol; the sum over symbols of A_sigma must
be row-stochastic.  The probability of a string is pi^T A_{w1} ... A_{wL} 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "HmmError",
    "Hmm",
    "parse_hmm",
    "format_hmm",
    "string_likelihood",
    "split_likelihood",
    "uniform_hmm",
    "random_hmm",
]

STOCHASTICITY_TOL = 1e-9


class HmmError(ValueError):
    """Malformed or invalid HMM description."""


@dataclass(frozen=True)
class Hmm:
    """The operators are stored once, sorted by symbol, as the read-only,
    C-contiguous float64 array ``operators`` of shape (|alphabet|, n, n); a
    plain attribute, not a field.  ``matrices`` maps each symbol, in that
    order, to a read-only view of its row."""

    initial: np.ndarray                 # shape (n,), n = state_count
    matrices: dict[str, np.ndarray]     # symbol -> (n, n); the keys are the alphabet

    def __post_init__(self):
        if not all(isinstance(s, str) and len(s) == 1 for s in self.matrices):
            raise HmmError("alphabet symbols must be single characters")
        init = np.asarray(self.initial, dtype=float)
        if init.ndim != 1:
            raise HmmError("initial vector must be one-dimensional")
        n = len(init)
        if n < 1:
            raise HmmError("state count must be positive")
        if not np.all(np.isfinite(init)):
            raise HmmError("initial vector has a non-finite entry")
        if np.any(init < 0):
            raise HmmError("initial vector has a negative entry")
        if abs(init.sum() - 1.0) > STOCHASTICITY_TOL:
            raise HmmError(f"initial vector sums to {float(init.sum())!r}, not 1")
        mats = {}
        for sym, m in self.matrices.items():
            m = np.asarray(m, dtype=float)
            if m.shape != (n, n):
                raise HmmError(f"matrix for {sym!r} must be {n}x{n}")
            if not np.all(np.isfinite(m)):
                raise HmmError(f"matrix for {sym!r} has a non-finite entry")
            if np.any(m < 0):
                raise HmmError(f"matrix for {sym!r} has a negative entry")
            mats[sym] = m
        symbols = sorted(mats)
        operators = np.array([mats[s] for s in symbols]).reshape(-1, n, n)
        rows = operators.sum(axis=(0, 2))
        bad = np.abs(rows - 1.0) > STOCHASTICITY_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise HmmError(
                f"sum of symbol matrices is not row-stochastic: row {i} sums to {float(rows[i])!r}"
            )
        init.setflags(write=False)
        operators.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "matrices", dict(zip(symbols, operators)))

    @property
    def state_count(self) -> int:
        return len(self.initial)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.matrices)

    def operator(self, symbol: str) -> np.ndarray:
        try:
            return self.matrices[symbol]
        except KeyError:
            raise HmmError(f"symbol {symbol!r} not in HMM alphabet") from None


def parse_hmm(text: str) -> Hmm:
    """Parse the JSON HMM document (states, alphabet, initial, matrices)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise HmmError(f"malformed HMM document: {e}") from None
    if not isinstance(doc, dict):
        raise HmmError("HMM document must be a JSON object")
    for key in ("states", "alphabet", "initial", "matrices"):
        if key not in doc:
            raise HmmError(f"missing field {key!r}")
    alphabet = doc["alphabet"]
    if not isinstance(alphabet, list) or any(
        not isinstance(s, str) or len(s) != 1 for s in alphabet
    ):
        raise HmmError("alphabet must be a list of single-character strings")
    states = doc["states"]
    if not isinstance(states, int) or isinstance(states, bool):
        raise HmmError("states must be an integer")
    if not isinstance(doc["matrices"], dict):
        raise HmmError("matrices must be an object")
    extra = sorted(set(doc["matrices"]) - set(alphabet))
    if extra:
        raise HmmError(
            f"matrices for symbols outside the alphabet: {', '.join(map(repr, extra))}"
        )
    initial = _numbers(doc["initial"], 1, "initial vector")
    matrices = {s: _numbers(doc["matrices"].get(s, []), 2, f"matrix for {s!r}")
                for s in alphabet}
    if len(matrices) != len(alphabet):
        raise HmmError("duplicate symbol in alphabet")
    if states < 1:
        raise HmmError("state count must be positive")
    if len(initial) != states:
        raise HmmError(f"initial vector must have length {states}")
    return Hmm(initial=initial, matrices=matrices)


def _numbers(value, depth: int, what: str) -> np.ndarray:
    """A JSON array of numbers (depth 1) or a rectangular array of such
    arrays (depth 2) as a float array; anything else raises HmmError."""
    shape = "an array" if depth == 1 else "a rectangular array of arrays"
    error = HmmError(f"{what} must be {shape} of numbers")
    items = [value]
    for _ in range(depth):
        if not set(map(type, items)) <= {list}:
            raise error
        items = list(chain.from_iterable(items))
    # by exact type, so bool (a subclass of int) is rejected
    if not set(map(type, items)) <= {int, float}:
        raise error
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError):  # ragged rows, or an int beyond float range
        raise error from None


def format_hmm(model: Hmm) -> str:
    """Serialize to the JSON HMM document format."""
    return json.dumps(
        {
            "states": model.state_count,
            "alphabet": list(model.alphabet),
            "initial": model.initial.tolist(),
            "matrices": {s: model.matrices[s].tolist() for s in model.alphabet},
        },
        indent=2,
    )


def _operator_product(model: Hmm, w: str) -> np.ndarray:
    out = np.eye(model.state_count)
    for ch in w:
        out = out @ model.operator(ch)
    return out


def string_likelihood(model: Hmm, w: str) -> float:
    """Probability of generating w: pi^T A_{w1} ... A_{wL} 1."""
    if len(w) < 1:
        raise HmmError("string must be nonempty")
    v = model.initial
    for ch in w:
        v = v @ model.operator(ch)
    return float(v.sum())


def split_likelihood(model: Hmm, w: str, cut: int) -> float:
    """String probability via the two-factor split identity.

    The operator products for the two halves are contracted through the
    middle state index, sum_{s,u,t} pi[s] A_{w<cut}[s,u] A_{w>=cut}[u,t];
    this is the sparse order-3 pairing tensor applied implicitly, and it
    agrees with ``string_likelihood`` up to rounding for every cut.
    """
    if not 1 <= cut < len(w):
        raise HmmError(f"cut must be in [1, {len(w) - 1}], got {cut}")
    a1 = _operator_product(model, w[:cut])
    a2 = _operator_product(model, w[cut:])
    return float(np.einsum("s,su,ut->", model.initial, a1, a2))


def _symbols(alphabet: str | tuple[str, ...]) -> tuple[str, ...]:
    """A generated model's alphabet: nonempty, with no symbol repeated."""
    symbols = tuple(alphabet)
    if not symbols:
        raise HmmError("alphabet must be nonempty")
    if len(set(symbols)) != len(symbols):
        raise HmmError("duplicate symbol in alphabet")
    return symbols


def uniform_hmm(alphabet: str | tuple[str, ...]) -> Hmm:
    """Single-state model giving every length-L string mass |alphabet|^-L."""
    symbols = _symbols(alphabet)
    p = 1.0 / len(symbols)
    return Hmm(initial=np.array([1.0]), matrices={s: np.array([[p]]) for s in symbols})


def random_hmm(state_count: int, alphabet: str | tuple[str, ...], seed: int) -> Hmm:
    """Seeded random model; rows of the stacked operators are normalized to 1."""
    if state_count < 1:
        raise HmmError("state count must be positive")
    symbols = _symbols(alphabet)
    rng = np.random.default_rng(seed)
    init = rng.exponential(size=state_count)
    init /= init.sum()
    block = rng.exponential(size=(state_count, len(symbols) * state_count))
    block /= block.sum(axis=1, keepdims=True)
    operators = block.reshape(state_count, len(symbols), state_count).swapaxes(0, 1)
    return Hmm(initial=init, matrices=dict(zip(symbols, operators)))
