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
column is a rule a -> b c, a ``CnfGrammar.rules`` row, in its order; from
FOLD_STATES on (``_fold_layers``) it is a distinct children pair (b, c) of
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
run on two CPUs or more, the fold shares every layer of at least THREAD_WORK
multiply-adds with a helper thread of its table, ``gramhmm-fold``, which the
table's first such layer starts.  The helper holds the table, its own product
stack and the buffer of its run sums.  The calling thread puts l and the runs
that hold about the second half of the layer's splits on the helper's job
queue, sums and adds its own runs, then takes the helper's answer (None, or
what it raised, which it re-raises) and adds the helper's run sums in run
order, so the layers keep the one-thread fold's bits.  The helper ends once
its table's kernel is freed, so tables built at the same time in several
threads, or in a child made by fork, each have their own.  No option or
environment variable controls the helper: only n, the layer's size and the
CPUs the process may run on do.

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
import weakref
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
# folded or batched, and one row block of the sampler's choice weights; also
# of a forward table or sampler copy on the heap (``_zeros``) and of one
# reduce3sat group's table
FOLD_ENTRIES = 2**16
# the state counts n whose layers fold on two threads (module docstring): one
# product of that size keeps one CPU busy.  On a shared 2-CPU host the c08
# table ran about 1.5 times as fast at 64 states, L=30 (0.9-1.8 over 40-96
# states); at 104-128 states 0.8-0.9 times, as OpenBLAS threads each product
# itself, and below 40 states, at L=30, 0.9-1.0 times
THREAD_STATES = (40, 100)
# the fewest multiply-adds (live splits * n**3) of a layer folded on two
# threads: a smaller one finishes before the helper would pay back its
# wake-up and the interpreter lock
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
    grammar alone; where it is false, F_l[a] is zero.  The layers are on
    the heap up to FOLD_ENTRIES entries, else on a lazily paged map
    (``_zeros``); the two hold the same bits."""
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

    def contract(self, l: int, a: int | np.ndarray | None = None) -> float | np.ndarray:
        """Weighted mass at length l from nonterminal a, the start by
        default: sum_{s,t} pi'[s] F_l[a][s,t]; for an index array a, the
        array of the masses from its entries."""
        f = self.layer(l)[self.grammar.start if a is None else a]
        mass = f.sum(axis=-1) @ self.model.initial
        return mass if np.ndim(a) else float(mass)


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


def _zeros(shape: tuple[int, ...], what: str) -> np.ndarray:
    """A zero-filled, writable, C-contiguous float64 array of ``shape``.

    One of at most FOLD_ENTRIES entries (512 KB) is on the heap, whose pages
    stay resident from one command to the next, so a small table costs no
    fresh map, page faults or unmap.  A larger one is on a private anonymous
    map, whose pages take no memory until written (blocks that stay zero
    never are) and go back to the OS when the array is freed.  Raises
    InferenceError, naming ``what`` and the bytes asked for, when either
    cannot be allocated."""
    entries = math.prod(shape)
    try:
        if entries <= FOLD_ENTRIES:
            return np.zeros(shape)
        buf = mmap.mmap(-1, entries * 8, access=mmap.ACCESS_COPY)
    except (MemoryError, OSError, OverflowError) as e:
        raise InferenceError(
            f"{what} needs {entries * 8} bytes and cannot be allocated: {e}") from None
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
    layers = _zeros((L, N, n, n), f"forward table for length {L}")
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
    rule_pair, rule_parent = g.rules.T
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

    In the helper's band (module docstring), ``add`` cuts a layer of at
    least THREAD_WORK multiply-adds and two runs in two, and puts l and the
    runs after the cut, at most len(stack) of them holding at least half the
    layer's splits if they can, on the table's job queue.  The first cut
    allocates, on the calling thread, the helper's stack and spare and the
    ``sums`` of its runs, and starts the helper with them and the table; a
    table that never cuts allocates none of them.  The helper sums run i
    into sums[i]; ``add`` sums and adds the runs before the cut, waits for
    the helper's answer and adds ``sums`` in run order, so the layers are
    the one-thread fold's bits.  When its own runs raise, ``add`` raises at
    once, and the helper finishes at most len(sums) runs into buffers that
    only it still holds.  Once the kernel is freed, a finalizer on ``total``
    ends the helper; the table and ``sums`` may stay held by what the helper
    raised for an abandoned layer.  Each thread's stack holds at most
    FOLD_ENTRIES entries (512 KB), and the helper allocates nothing per
    layer.
    """
    L, n = len(layers), layers.shape[2]
    # fan[p] is (b, c, parents of pair p), as Python ints, cut from the rule rows
    ends = np.bincount(g.rules[:, 0], minlength=len(g.pairs)).cumsum().tolist()
    rule_parent = g.rules[:, 1].tolist()
    fan = [(b, c, rule_parent[s:e]) for (b, c), s, e in zip(g.pairs.tolist(), [0] + ends, ends)]
    # the calling thread's stack of chunk products, chunk-sum spare and run sum
    chunk = min(max(1, FOLD_ENTRIES // (n * n)), L)
    stack, spare, total = np.empty((chunk, n, n)), np.empty((n, n)), np.empty((n, n))
    helped = THREAD_STATES[0] <= n < THREAD_STATES[1] and _cpu_count() >= 2
    jobs = done = sums = None

    def add(l: int, mask: np.ndarray) -> list[int]:
        nonlocal jobs, done, sums
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
        # the helper sums the runs from cut on: at most len(stack) of them,
        # holding at least half the layer's splits if they can
        cut = len(runs)
        if helped and cut > 1 and len(split) * n**3 >= THREAD_WORK:
            tail = 0
            while cut > 1 and 2 * tail < len(split) and len(runs) - cut < len(stack):
                cut -= 1
                tail += runs[cut][5]
            if jobs is None:
                import queue  # 1.6 ms, paid once per process
                jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
                sums = np.empty_like(stack)
                weakref.finalize(total, jobs.put, None)
                threading.Thread(target=_serve, name="gramhmm-fold", daemon=True, args=(
                    jobs, done, layers, np.empty_like(stack), np.empty_like(spare), sums)).start()
            jobs.put((l, runs[cut:]))
        for run in runs[:cut]:
            _run_sum(layers, l, run, stack, spare, total)
            for a in run[2]:
                cur[a] += total
        if cut < len(runs):
            error = done.get()
            if error is not None:
                try:
                    raise error
                finally:
                    # its traceback holds this frame: the cycle would keep the
                    # kernel, and so the helper, until gc runs
                    error = None
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


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(jobs, done, layers: np.ndarray, stack: np.ndarray, spare: np.ndarray,
           sums: np.ndarray) -> None:
    """For each (l, runs) on ``jobs``, sum run i of layer l of ``layers``
    into sums[i] with ``stack`` and ``spare``, and put on ``done`` what that
    raised, or None, until the None that ends a table's helper."""
    for l, runs in iter(jobs.get, None):
        try:
            for run, out in zip(runs, sums):
                _run_sum(layers, l, run, stack, spare, out)
        except BaseException as e:  # re-raised in the waiting thread
            done.put(e)
        else:
            done.put(None)


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
