"""Forward-table dynamic program for grammar-constrained HMM likelihoods.

Layer l of the table holds, for each grammar nonterminal a, the matrix
F_l[a][s,t] = sum over length-l strings w of (#derivation trees of w rooted
at a) * (A_{w1} ... A_{wl})[s,t].  Contracting the top layer with the start
symbol and the initial distribution gives the weighted mass
Z = sum_w f_G(w) * f_A(w), which is the exact constrained likelihood when
the grammar is unambiguous.

Layer 1 is F_1[a] = sum of A_sigma over lexical rules a -> sigma.  Layer l
is built from the shorter ones: F_l[a] = sum over rules a -> b c and splits
m = 1..l-1 of F_m[b] @ F_{l-m}[c].  Row l of ``ForwardTable.live`` marks
the nonterminals that derive some string of length l, which depends on the
grammar alone.  A product is live when b derives length m and c length
l - m; every other product is an exact zero matrix and is never formed.

``forward_table`` runs the one loop over l = 2..L.  The path chosen by the
HMM's state count n sets up, once per table, its product columns and a
kernel ``add(l, mask)``: below FOLD_STATES states (``_batch_layers``) a
column is a rule a -> b c, in (pair, parent) order; from FOLD_STATES on
(``_fold_layers``) it is a distinct children pair (b, c) of
``CnfGrammar.pairs``.  The loop keeps two liveness rows per layer, taken
from ``live[l-1]``: ``left[l-1]`` (the column's b derives length l) and
``right[l-1]`` (its c does).  Layer l's live products are the true entries
of the (split, column) mask left[:l-1] & right[l-2::-1], row i being split
m = i + 1.  The kernel forms and adds them into layer l and returns the
parents it wrote; the loop marks those in ``live[l-1]`` and takes that
row's liveness rows.  A layer with no live product stays zero, and so do
its rows.  Cost is O(live products of the layer * n^3) per layer, at most
O(l * |rules| * n^3).

With THREAD_STATES[0] <= n < THREAD_STATES[1] states, in a process that may
run on two CPUs or more, the fold hands the runs that hold about the second
half of a layer's splits to one worker thread, on every layer of at least
THREAD_WORK multiply-adds; the calling thread adds the worker's run sums in
run order after its own, so the layers keep the one-thread fold's bits.  The
worker starts with the first table in that band and stays for the process.
Each thread keeps its own stack of at most 512 KB.  No option or
environment variable controls the worker: only n, the layer's size and
``os.sched_getaffinity`` do.

All layers live in one read-only, C-contiguous float64 array of shape
(L, N, n, n), indexed [l-1, a, s, t], which the likelihood, the sampler and
the FPRAS read in place.  A table carries the grammar and HMM it was built
from, so it is passed alone: ``table.contract(l)`` and
``sampling.Sampler(table)`` read it, and there is no check that a table
matches some other grammar or HMM.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar
from .hmm import Hmm

__all__ = [
    "InferenceError",
    "AttestationError",
    "ForwardTable",
    "LikelihoodResult",
    "forward_table",
    "weighted_mass",
    "ucfg_likelihood",
    "likelihood_upto",
    "NumericalError",
    "AttestationViolatedError",
]

AMBIGUITY_SLACK = 1e-9
# HMMs with at least this many states get the folded layer, whose strided
# views read the table in place.  Below it each layer's live products are
# batched per rule, from gathered copies of both factors, and scattered entry
# by entry: at n >= 8 those copies cost more memory than the fold's views and
# the scatter's cost per entry outgrows the fold's one add per pair, while at
# small n the fold's fixed cost per pair and layer outweighs its small products
FOLD_STATES = 8
# largest entry count of one float64 temporary, 512 KB: one chunk's products,
# folded or batched, and one row block of the sampler's choice weights
FOLD_ENTRIES = 2**16
# HMMs with THREAD_STATES[0] <= n < THREAD_STATES[1] states, in a process
# that may run on two CPUs or more, fold each layer on two threads: one
# product of that size keeps one CPU busy.  On a shared 2-CPU host the c08
# table ran about 1.5 times as fast at 64 states, L=30 (0.9-1.8 over 40-96
# states); at 104-128 states 0.8-0.9 times, as OpenBLAS threads each product
# itself, and below 40 states, at L=30, 0.9-1.0 times
THREAD_STATES = (40, 100)
# a layer is folded on two threads only when its live products come to at
# least this many multiply-adds (live splits * n**3): a smaller one finishes
# before the worker would pay back its wake-up and the interpreter lock
THREAD_WORK = 2**23


class NumericalError(ValueError):
    """A result cannot be represented or trusted in floating point."""


class InferenceError(ValueError):
    pass


class AttestationError(InferenceError):
    """The unambiguity attestation is missing or contradicted by the result."""


class AttestationViolatedError(AttestationError, NumericalError):
    """The weighted mass exceeds 1, so the attested grammar is ambiguous."""


@dataclass(frozen=True)
class ForwardTable:
    """Layers 1..length as one C-contiguous, read-only float64 array of
    shape (length, N, n, n), where layers[l-1, a, s, t] = F_l[a][s,t], and
    the read-only bool array ``live`` of shape (length, N): live[l-1, a] is
    true iff a derives some string of length l, which depends on the
    grammar alone; where it is false, F_l[a] is zero."""
    layers: np.ndarray
    live: np.ndarray
    grammar: CnfGrammar
    model: Hmm

    @property
    def length(self) -> int:
        return len(self.layers)

    def layer(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.length:
            raise InferenceError(f"layer index {l} out of range [1, {self.length}]")
        return self.layers[l - 1]

    def contract(self, l: int) -> float:
        """Weighted mass at length l: sum_{s,t} pi'[s] F_l[S][s,t]."""
        f = self.layer(l)[self.grammar.start]
        return float(self.model.initial @ f.sum(axis=1))


@dataclass(frozen=True)
class LikelihoodResult:
    value: float
    length: int
    mode: str  # weighted-mass | ucfg-exact | upto-L


def _check_alphabets(g: CnfGrammar, model: Hmm) -> None:
    if set(g.alphabet) != set(model.alphabet):
        raise InferenceError(
            f"alphabet mismatch: grammar {list(g.alphabet)} vs HMM {sorted(model.alphabet)}"
        )


def _mapped_zeros(shape: tuple[int, ...], what: str) -> np.ndarray:
    """A zero-filled, writable float64 array of ``shape`` on a private
    anonymous map, whose pages take no memory until written (blocks that
    stay zero never are) and go back to the OS when the array is freed.
    Raises InferenceError, naming ``what``, when the map cannot be made."""
    size = math.prod(shape) * 8
    try:
        buf = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    except (OSError, OverflowError) as e:
        raise InferenceError(f"{what} needs {size} bytes and cannot be allocated: {e}") from None
    return np.frombuffer(buf).reshape(shape)


def forward_table(g: CnfGrammar, model: Hmm, L: int) -> ForwardTable:
    """Build layers 1..L of the forward table of ``g`` and ``model``, and
    their ``live`` rows, by the loop of the module docstring.

    Raises InferenceError when the alphabets differ, when L < 1, or when the
    table cannot be allocated.
    """
    _check_alphabets(g, model)
    if L < 1:
        raise InferenceError("length must be >= 1")
    N, n = g.nonterminal_count, model.state_count
    layers = _mapped_zeros((L, N, n, n), f"forward table for length {L}")
    live = np.zeros((L, N), dtype=bool)
    for a, s in g.lexical_rules:
        layers[0, a] += model.matrices[s]
        live[0, a] = True
    children, add = (_fold_layers if n >= FOLD_STATES else _batch_layers)(g, layers)
    # sides[l-1] stacks the rows left[l-1] and right[l-1]
    sides = np.zeros((L, 2, children.shape[1]), dtype=bool)
    left, right = sides[:, 0], sides[:, 1]
    live[0].take(children, out=sides[0])
    for l in range(2, L + 1):
        row = live[l - 1]
        row[add(l, left[:l - 1] & right[l - 2::-1])] = True
        row.take(children, out=sides[l - 1])
    layers.setflags(write=False)
    live.setflags(write=False)
    return ForwardTable(layers=layers, live=live, grammar=g, model=model)


def _batch_layers(
    g: CnfGrammar, layers: np.ndarray
) -> tuple[np.ndarray, Callable[[int, np.ndarray], np.ndarray]]:
    """Per-rule columns, and a kernel that forms a layer's live products by
    batched ``np.matmul`` and adds them by one flat ``np.add.at`` per chunk.

    The table is read as flat blocks: block (l-1)*N + a is F_l[a].  Column r
    is rule a -> b c, and R is the rule count.  Three int rows, built once,
    have one entry i*R + r per split m = i + 1 and rule r: ``lo`` = i*N + b,
    the block of F_m[b]; ``hi`` = c - i*N, the block of F_{l-m}[c] less
    (l-2)*N; and ``parent`` = a.  The live products are the true entries of
    the raveled mask, ordered by split, then rule, and are formed in chunks
    of at most max(1, FOLD_ENTRIES // n**2), each factor read by one ``take``
    through the rows into a buffer allocated once per table.  Each chunk
    adds its products into the flattened layer at ``entries[a]``, the n*n
    flat entries of F_l[a].  ``np.add.at`` adds repeated indices one after
    another in index order, in place, so each F_l[a] gets its addends in the
    order of a loop over splits, then rules, across chunk boundaries too.
    Adding +0.0 to a nonnegative entry changes nothing, so the layers are
    that loop's bits while their entries are finite.  After overflow, a dead
    product against an overflowed layer is 0 * inf = NaN in the loop and is
    never formed here, so such entries stay inf.
    """
    L, N, n = layers.shape[:3]
    rule_pair, rule_parent = np.nonzero(g.parents)
    children = g.pairs[rule_pair].T
    rule_b, rule_c = children
    # entry i*R + r of each row is split m = i + 1 and rule r
    shift = np.arange(0, (L - 1) * N, N)[:, None]
    lo, hi = (shift + rule_b).ravel(), (rule_c - shift).ravel()
    parent = np.tile(rule_parent, L - 1)
    entries = np.arange(N * n * n).reshape(N, n * n)
    blocks, flat = layers.reshape(-1, n, n), layers.reshape(L, -1)
    chunk = min(max(1, FOLD_ENTRIES // (n * n)), max(1, len(lo)))
    # a chunk's two factor stacks, its products and their parents' flat
    # entries, allocated once per table: allocated and freed on every layer,
    # they let the heap shrink and fault its pages back in on the next layer
    lefts, rights, products = np.empty((3, chunk, n, n))
    spots = np.empty((chunk, n * n), dtype=np.intp)

    # a short table pays these calls on every layer, so they are the cheaper
    # method forms: ``.nonzero()`` over ``np.nonzero``, ``take`` over fancy
    # indexing; ``mode="clip"`` writes straight into ``out`` and clips
    # nothing, as every index is in range
    def add(l: int, mask: np.ndarray) -> np.ndarray:
        q = mask.ravel().nonzero()[0]
        if not len(q):
            return q
        parts = [q] if len(q) <= chunk else (q[at:at + chunk] for at in range(0, len(q), chunk))
        for part in parts:
            k = len(part)
            x, y, spot = lefts[:k], rights[:k], spots[:k]
            blocks.take(lo.take(part), axis=0, out=x, mode="clip")
            blocks.take(hi.take(part) + (l - 2) * N, axis=0, out=y, mode="clip")
            entries.take(parent.take(part), axis=0, out=spot, mode="clip")
            np.add.at(flat[l - 1], spot.ravel(), np.matmul(x, y, out=products[:k]).ravel())
        return parent.take(q)

    return children, add


def _fold_layers(
    g: CnfGrammar, layers: np.ndarray
) -> tuple[np.ndarray, Callable[[int, np.ndarray], list[int]]]:
    """Per-pair columns, and a kernel that adds a layer's live products one
    children pair at a time, in pair order.

    A pair's live splits i (= m - 1) are cut into runs: evenly spaced ones,
    a single split included, form one run, and any other set one run per
    split.  Every run is summed by ``_run_sum`` and its sum is added once
    into each parent, run after run.  The sums run in a fixed order, so a
    rebuild gives the same bits, but not the full loop's: the layers match
    that loop's to a relative error of about 1e-15.

    With THREAD_STATES[0] <= n < THREAD_STATES[1] states and at least two
    CPUs in this process's affinity mask, each layer of at least THREAD_WORK
    multiply-adds and two runs is cut in two: the one ``_Worker`` thread sums
    the runs after the cut, which hold about the second half of the layer's
    splits, into a buffer shaped like the stack, while the calling thread
    sums and adds the runs before it; the caller then waits for the worker
    and adds its sums in run order.  So the layers are the one-thread fold's
    bits.  The worker gets at most len(stack) runs, and its stack, sums and
    spare are allocated once per table, so it allocates nothing per layer.
    Each thread keeps its own stack of at most FOLD_ENTRIES entries (512 KB):
    the fold holds two such stacks while it uses the worker.  No option or
    environment variable selects the worker.
    """
    L, n = len(layers), layers.shape[2]
    # fan[p] is (b, c, parents of pair p), as Python ints
    fan = [(b, c, np.flatnonzero(parents).tolist())
           for (b, c), parents in zip(g.pairs.tolist(), g.parents)]
    # the calling thread's stack of chunk products, chunk-sum spare and run sum
    chunk = min(max(1, FOLD_ENTRIES // (n * n)), L)
    stack, spare, total = np.empty((chunk, n, n)), np.empty((n, n)), np.empty((n, n))
    worker = None
    if THREAD_STATES[0] <= n < THREAD_STATES[1] and len(os.sched_getaffinity(0)) >= 2:
        worker = _Worker.shared()
        # the worker's own stack and spare, and the sums of its runs
        side_stack, sums = np.empty_like(stack), np.empty_like(stack)
        side_spare = np.empty_like(spare)

    def add(l: int, mask: np.ndarray) -> list[int]:
        cur, written, runs = layers[l - 1], [], []
        # i = m - 1 for split m; pair p's live splits are split[ends[p-1]:ends[p]]
        pair, split = mask.T.nonzero()
        ends = np.bincount(pair, minlength=len(fan)).cumsum().tolist()
        split = split.tolist()
        for (b, c, parents), start, end in zip(fan, [0] + ends, ends):
            if start == end:
                continue
            splits = split[start:end]
            i, k = splits[0], end - start
            d = splits[1] - i if k > 1 else 1
            # (children, parents, first split, spacing, split count)
            runs += ([(b, c, parents, i, d, k)] if splits == list(range(i, splits[-1] + 1, d))
                     else [(b, c, parents, i, 1, 1) for i in splits])
            written += parents
        # the worker sums the runs from cut on: at most len(sums) of them,
        # holding at least half the layer's splits if they can
        cut = len(runs)
        if worker is not None and cut > 1 and len(split) * n**3 >= THREAD_WORK:
            tail = 0
            while cut > 1 and 2 * tail < len(split) and len(runs) - cut < len(sums):
                cut -= 1
                tail += runs[cut][5]
            side = runs[cut:]
            if not worker.start(lambda: [_run_sum(layers, l, run, side_stack, side_spare, out)
                                         for run, out in zip(side, sums)]):
                cut = len(runs)
        try:
            for run in runs[:cut]:
                _run_sum(layers, l, run, stack, spare, total)
                for a in run[2]:
                    cur[a] += total
        finally:
            # the worker reads the table: it must be done before add returns
            error = worker.wait() if cut < len(runs) else None
        if cut < len(runs):
            if error is not None:
                raise error
            for run, out in zip(runs[cut:], sums):
                for a in run[2]:
                    cur[a] += out
        return written

    return g.pairs.T, add


def _run_sum(layers: np.ndarray, l: int, run: tuple, stack: np.ndarray, spare: np.ndarray,
             out: np.ndarray) -> None:
    """Write into ``out`` the sum, for layer l, of F_m[b] @ F_{l-m}[c] over
    the run's k splits m = i + 1, i + 1 + d, ...

    The products are stacked ``np.matmul`` over two strided views of
    ``layers``, F_m[b] for ascending m against F_{l-m}[c], in chunks of
    len(stack) splits; each chunk is summed over its splits and the chunk
    sums are added in order, the later ones through ``spare``.  A one-split
    run's sum is its product's bits.  ``stack`` holds at most FOLD_ENTRIES
    float64 entries (512 KB) up to n = 256, one n x n beyond.
    """
    b, c, _, i, d, k = run
    lo, hi = layers[i:i + d * k:d, b], layers[l - 2 - i::-d, c][:k]
    if k == 1:
        np.matmul(lo, hi, out=out[None])
        return
    chunk = len(stack)
    np.add.reduce(np.matmul(lo[:chunk], hi[:chunk], out=stack[:min(chunk, k)]), axis=0, out=out)
    for at in range(chunk, k, chunk):
        part = np.matmul(lo[at:at + chunk], hi[at:at + chunk], out=stack[:min(chunk, k - at)])
        out += np.add.reduce(part, axis=0, out=spare)


class _Worker:
    """The one daemon thread that sums runs for the fold, started by the
    first table that uses it.  It takes one job at a time: a table built
    meanwhile in another thread finds it busy and folds alone."""

    _shared = None
    _starting = threading.Lock()

    def __init__(self) -> None:
        # _busy is held from ``start`` to ``wait``; _go is released by
        # ``start`` and _done when the job ends
        self._busy, self._go, self._done = threading.Lock(), threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job: Callable[[], object] | None = None
        self._error: BaseException | None = None
        threading.Thread(target=self._serve, name="gramhmm-fold", daemon=True).start()

    @classmethod
    def shared(cls) -> _Worker:
        with cls._starting:
            if cls._shared is None:
                cls._shared = cls()
            return cls._shared

    @classmethod
    def forget(cls) -> None:
        """In a child made by fork, which has no worker thread: the first
        table in the band starts a new one."""
        cls._shared, cls._starting = None, threading.Lock()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            try:
                self._job()
            except BaseException as e:  # re-raised in the waiting thread
                self._error = e
            self._job = None  # so the finished table can be freed
            self._done.release()

    def start(self, job: Callable[[], object]) -> bool:
        """Hand ``job`` to the thread, or return False when it is busy."""
        if not self._busy.acquire(blocking=False):
            return False
        self._job = job
        self._go.release()
        return True

    def wait(self) -> BaseException | None:
        """Block until the job ends; return what it raised, if anything."""
        self._done.acquire()
        error, self._error = self._error, None
        self._busy.release()
        return error


os.register_at_fork(after_in_child=_Worker.forget)


def weighted_mass(g: CnfGrammar, model: Hmm, L: int) -> LikelihoodResult:
    """Z = sum over length-L strings of f_G(w) * f_A(w); valid for any CFG.

    A caller that holds a forward table reads the same value, at any length
    the table covers, as ``table.contract(L)``.
    """
    return LikelihoodResult(value=forward_table(g, model, L).contract(L), length=L,
                            mode="weighted-mass")


def _attested(value: float, L: int) -> float:
    """The weighted mass ``value`` at length L of a grammar attested
    unambiguous; a value above 1 proves the attestation broken and raises."""
    if value > 1.0 + AMBIGUITY_SLACK:
        raise AttestationViolatedError(
            f"ambiguity attestation violated: weighted mass {value} exceeds 1 at length {L}"
        )
    return value


def ucfg_likelihood(
    g: CnfGrammar, model: Hmm, L: int, unambiguity_attested: bool = False
) -> LikelihoodResult:
    """Exact constrained likelihood, valid when the caller attests the grammar unambiguous.

    Unambiguity is undecidable in general, so it is the caller's promise;
    a result above 1 proves the promise broken and raises.
    """
    if not unambiguity_attested:
        raise AttestationError(
            "ucfg likelihood requires the caller to attest the grammar is unambiguous"
        )
    value = _attested(weighted_mass(g, model, L).value, L)
    return LikelihoodResult(value=value, length=L, mode="ucfg-exact")


def likelihood_upto(
    g: CnfGrammar, model: Hmm, L: int, unambiguity_attested: bool = False
) -> LikelihoodResult:
    """Sum of per-length exact likelihoods for l = 1..L off one shared table.

    The >1 sanity check applies per length; the sum itself may legitimately
    exceed 1 (each length carries its own distribution).
    """
    if not unambiguity_attested:
        raise AttestationError(
            "upto-L likelihood requires the caller to attest the grammar is unambiguous"
        )
    table = forward_table(g, model, L)
    total = 0.0
    for l in range(1, L + 1):
        total += _attested(table.contract(l), l)
    return LikelihoodResult(value=total, length=L, mode="upto-L")
