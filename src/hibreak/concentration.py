"""Batched concentration-step search shared by LTS and MCD.

FAST-LTS and FAST-MCD (Rousseeuw & Van Driessen 2006 and 1999) share one
schedule: many small starts take two concentration steps (C-steps) each,
then the n_best_kept best iterate to convergence. A C-step refits on the
h rows that score lowest under the current fit, which never increases
the objective. Each part is one _phase, rows in and rows out, that moves
its trials one step at a time: per row block, (T, n) scores, their 0/1
masks of the h lowest (one partition per C-step) and the sums of per-row
terms under each mask (one matmul), in one two-buffer workspace per
search; per batch of row blocks, one factorization of every trial's sums.
Above NESTED_MIN_N rows, disjoint random subsamples screen the starts and
their union the rows the best of each select, so the start phase does not
grow with n (the nested extension of both papers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .errors import AllStartsDegenerate

# Subset optima repeat bitwise at a fixed point, so a trial has converged
# when a step changes its objective by <= this relative amount.
CONVERGENCE_RTOL = 1e-12

# Up to these sizes every (dim+1)-row start is enumerated, removing all
# seed dependence where the exhaustive oracle can check the result; dim is
# the coefficient count for LTS and the predictor count for MCD.
EXHAUSTIVE_MAX_N = 16
EXHAUSTIVE_MAX_DIM = 3

# Searches on more than NESTED_MIN_N rows draw their starts inside
# min(MAX_SUBSAMPLES, n // SUBSAMPLE_ROWS) disjoint subsamples of
# SUBSAMPLE_ROWS rows each.
NESTED_MIN_N = 600
SUBSAMPLE_ROWS = 300
MAX_SUBSAMPLES = 5

# Memory budget of T trials: entries of a batch's (T, c) sums of the n x c per-row
# terms, and half as many again for each of a row block's two (T, n) arrays.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class Model:
    """The model-specific pieces of a search.

    fit(terms summed over each trial's rows, row count) returns (params,
    objectives, ok) of a batch of trials: a tuple of arrays with a leading
    trial axis, and the (T,) objectives and non-degenerate mask; where the
    objective needs every row (LTS), fit gives None for it and rows(params,
    ok, out) completes the fits of a row block. select(params, out) gives
    the (T, n) 0/1 masks of the h rows each fit scores lowest in out[1];
    rows and select write into out, a pair of (T, n) arrays, or allocate if
    None. refit is the estimator's exact subset evaluator
    (lts.evaluate_subsets or mcd.evaluate_subsets, which its oracle and
    public C-step use too); one call on the stacked rows of the refined
    trials ranks them and gives the winner's estimate.
    """

    terms: np.ndarray
    fit: Callable[..., tuple[tuple, np.ndarray | None, np.ndarray]]
    select: Callable[..., np.ndarray]
    refit: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, Callable[[int], Any]]]
    rows: Callable[..., tuple[tuple, np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class Search:
    objective: float
    estimate: Any
    rows: np.ndarray
    converged: bool
    n_csteps: int


def check_search_config(config) -> None:
    """The rules on the search fields that LtsConfig and McdConfig share; ValueError if broken."""
    if min(config.n_starts, config.n_best_kept, config.max_csteps) < 1:
        raise ValueError("n_starts, n_best_kept and max_csteps must be >= 1")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")


def partitioned(a: np.ndarray, kth: int, out: np.ndarray | None = None) -> np.ndarray:
    """A copy of a, in out (None allocates), partitioned at kth along its last axis."""
    out = np.positive(a, out=out)  # +a: a copy, bit for bit
    out.partition(kth, axis=-1)
    return out


def lowest_mask(scores: np.ndarray, h: int, out=None, kth=None) -> np.ndarray:
    """0/1 mask in out (None: new) of the h lowest of each row of scores (ties: lowest index);
    a (T, 1) kth, each row's h-th lowest, spares partitioning a copy of scores in out."""
    if kth is None:
        out = partitioned(scores, h - 1, out)
        kth = out[:, h - 1 : h].copy()  # the mask overwrites out
    mask = np.less_equal(scores, kth, out=np.empty(scores.shape) if out is None else out)
    tie = np.flatnonzero(mask.sum(axis=1) > h)  # more than h at or below kth
    if tie.size:
        below, tied = scores[tie] < kth[tie], scores[tie] == kth[tie]
        tied &= np.cumsum(tied, axis=1) <= h - below.sum(axis=1, keepdims=True)
        mask[tie] = below | tied
    return mask


def lowest_rows(scores: np.ndarray, h: int) -> np.ndarray:
    """Ascending indices of the h lowest scores; ties go to the lowest index."""
    return np.flatnonzero(lowest_mask(scores[None], h)[0])


def _draw(rng: np.random.Generator, n: int, dim: int, count: int) -> np.ndarray:
    """(count, dim+1) sorted uniform subsets of range(n): Floyd's algorithm, all rows at once."""
    out = np.empty((count, dim + 1), dtype=np.int64)
    for i, j in enumerate(range(n - dim - 1, n)):
        t = rng.integers(0, j + 1, size=count)
        out[:, i] = np.where((out[:, :i] == t[:, None]).any(axis=1), j, t)
    out.sort(axis=1)
    return out


def lexicographic_chunks(n: int, r: int, size: int):
    """(T, r) arrays of the r-subsets of range(n) in lexicographic order; T = size but in the last.

    In the combinatorial number system the subset c_0 < ... < c_{r-1} of rank t has
    sum_i C(n-1-c_i, r-i) = C(n, r) - 1 - t, so each c_i is the first c whose C(n-1-c, r-i) fits
    in what the members before it left: a searchsorted on the ascending column -C(n-1-c, r-i).
    The complement has rank C(n, r) - 1 - t among the (n-r)-subsets, so only the smaller side,
    k = min(r, n - r) members, is read off; a (T * n) mask gives the larger. C(n, r) < 2**63.
    """
    total, k = math.comb(n, r), min(r, n - r)
    columns = [-np.array([math.comb(n - 1 - c, j) for c in range(n)]) for j in range(k, 0, -1)]
    for first in range(0, total, size):
        ranks = np.arange(first, min(first + size, total))
        left = ranks - (total - 1) if k == r else -ranks  # minus what the members still sum to
        chunk = np.empty((len(ranks), k), dtype=np.intp)
        for i, column in enumerate(columns):
            c = column.searchsorted(left)
            left -= column[c]
            chunk[:, i] = c
        if k < r:
            rows = np.arange(0, len(ranks) * n, n)[:, None]
            mask = np.ones(len(ranks) * n, dtype=bool)
            mask[chunk + rows] = False
            chunk = np.flatnonzero(mask).reshape(len(ranks), r)
            chunk -= rows
        yield chunk


def draw_starts(n: int, dim: int, config) -> np.ndarray:
    """(T, dim+1) start rows: every subset on small instances, else seeded draws."""
    if n <= EXHAUSTIVE_MAX_N and dim <= EXHAUSTIVE_MAX_DIM:
        return next(lexicographic_chunks(n, dim + 1, math.comb(n, dim + 1)))
    return _draw(np.random.default_rng(config.seed), n, dim, config.n_starts)


def _take(params: tuple, index) -> tuple:
    return tuple(a[index] for a in params)


def _views(work: list | None, shape: tuple) -> list:
    """Scores and scratch (partition, then mask) of shape in work's two buffers, grown (None: new)."""
    work, size = work or [np.empty(0)] * 2, shape[0] * shape[1]
    if len(work[0]) < size:
        work[:] = np.empty((2, size))  # one allocation: malloc keeps it for the next search
    return [buffer[:size].reshape(shape) for buffer in work]


def _distinct(masks: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first and the last copy of each distinct row of masks (0/1, h ones each)."""
    if not len(masks):  # argmax rejects an empty axis
        return np.zeros(0, int), np.zeros(0, int)
    same = masks @ masks.T == h  # exact sums of 0/1 products; argmax finds the first True
    first = np.flatnonzero(same.argmax(axis=1) == np.arange(len(masks)))
    return first, len(masks) - 1 - same[first, ::-1].argmax(axis=1)


def _phase(model: Model, starts: np.ndarray, h: int, steps: int, keep: int,
           objective: np.ndarray | None = None, optional: bool = False, work: list | None = None):
    """Fit each start (a row of starts holds its rows), take up to steps C-steps, keep the best.

    Trials advance a step at a time in batches of row blocks: each row block
    completes its fits (model.rows) in the workspace work, stops trials and
    sums the rows the others select, then one model.fit call factors the
    batch. A trial stops after steps C-steps or, given the objective of the
    fits that selected starts (refinement), once a fit, the opening one too,
    changes it by at most CONVERGENCE_RTOL; screening passes none, as a
    start's objective is not comparable with an h-row one. The keep best
    stopped fits by (objective, trial), the only ones to leave the
    workspace, hand on the h rows they select, each set once, as its first
    fit in rank with its last (highest) objective: refinement stops it no
    earlier than any copy. A degenerate trial is dropped alone; a phase left
    with none raises AllStartsDegenerate unless optional.
    Returns (trial, rows, objective, converged, n_csteps): trial indexes
    starts, ranked, and n_csteps counts the C-steps that did not turn degenerate.
    """
    (n, c), n_csteps = model.terms.shape, 0
    block = max(1, min(3 * _BLOCK_ELEMENTS // (2 * n), _BLOCK_ELEMENTS // c))
    batch = block * max(1, (_BLOCK_ELEMENTS // c) // block)
    finished = []  # (objectives, trials, converged, *params) of stopped trials
    for first in range(0, len(starts), batch):
        trials = [np.arange(b, min(b + block, len(starts)))
                  for b in range(first, min(first + batch, len(starts)), block)]
        olds = [None if objective is None else objective[t] for t in trials]
        sums, size = np.empty((min(batch, len(starts) - first), c)), 0
        for trial in trials:
            out = _views(work, (len(trial), n))
            out[1][...] = 0.0
            out[1].reshape(-1)[starts[trial] + np.arange(0, len(trial) * n, n)[:, None]] = 1.0
            np.matmul(out[1], model.terms, out=sums[size : size + len(trial)])
            size += len(trial)
        for step in range(steps + 1):
            fitted, going, size, read = model.fit(sums[:size], h if step else starts.shape[1]), [], 0, 0
            for trial, old in zip(trials, olds):
                out, part = _views(work, (len(trial), n)), slice(read, read := read + len(trial))
                params, new, ok = _take(fitted[0], part), fitted[1], fitted[2][part]
                params, new, ok = model.rows(params, ok, out) if model.rows else (params, new[part], ok)
                n_csteps += np.count_nonzero(ok) if step else 0
                old = new if old is None else old
                live = ok  # screening stops no trial before its last step
                if objective is not None or step == steps or not ok.any():
                    converged = old - new <= CONVERGENCE_RTOL * old
                    done = ok & ((converged & (objective is not None)) | (step == steps))
                    stopped = np.flatnonzero(done)
                    if len(stopped) > keep:  # only the best keep can stay: take no other fit
                        stopped = stopped[np.lexsort((trial[stopped], new[stopped]))[:keep]]
                    finished.append(_take((new, trial, converged, *params), stopped))
                    live = ok ^ done  # done is within ok
                if count := np.count_nonzero(live):  # every fit selects; the live ones' sums stay
                    rows = sums[size : size + len(trial)]
                    np.matmul(model.select(params, out), model.terms, out=rows)
                    if count < len(trial):
                        trial, new = trial[live], new[live]
                        rows[:count] = rows[live]
                    going.append((trial, new))
                    size += count
            del fitted, params  # not alive beside the next fit's stacks
            if not going:
                break
            trials, olds = zip(*going)
        merged = tuple(map(np.concatenate, zip(*finished)))
        finished = [_take(merged, np.lexsort((merged[1], merged[0]))[:keep])]
    if not optional and not sum(len(f[1]) for f in finished):  # finished is [] without starts
        raise AllStartsDegenerate(f"all {len(starts)} trials on {n} rows with h={h} turned degenerate")
    objective, trial, converged, *params = finished[0]
    mask = model.select(tuple(params))
    kept, last = _distinct(mask, h)
    rows = np.nonzero(mask[kept])[1].reshape(len(kept), h)
    return trial[kept], rows, objective[last], converged[kept], n_csteps


def concentrate(model: Model, starts: np.ndarray, h: int, config, work: list | None = None) -> Search:
    """Screen every start, refine the rows the config.n_best_kept best select, pick one.

    Refinement keeps all its trials and opens with a fit on those rows, so a
    refined trial takes up to config.max_csteps fits. One model.refit call
    evaluates each row set the last fits select, converged or not, once; the
    winner has the lowest (refit objective, start index).
    """
    screened, rows, objective, _, n_csteps = _phase(
        model, starts, h, 2, config.n_best_kept, work=work)
    trial, rows, _, converged, refine_steps = _phase(
        model, rows, h, config.max_csteps - 1, len(rows), objective, work=work)
    kept, objective, fit = model.refit(rows)
    if not kept.size:
        raise AllStartsDegenerate(f"the exact refit rejects all {len(rows)} refined subsets")
    best = np.lexsort((screened[trial[kept]], objective))[0]
    return Search(float(objective[best]), fit(best), rows[kept[best]],
                  bool(converged[kept[best]]), n_csteps + refine_steps)


@np.errstate(over="ignore", invalid="ignore")
def run_search(
    make_model: Callable[[np.ndarray, int], Model], n: int, dim: int, h: int, config
) -> Search:
    """The seeded search for the best h of n rows from (dim+1)-row starts.

    make_model(rows, h_rows) models the data indexed by rows (an index
    array, or a full slice that keeps the data as it is) with h_rows-row
    subsets. With h >= n the one start is every row. Above NESTED_MIN_N
    rows, k subsamples screen n_starts // k starts each (one may be left
    with none), their union screens the rows the n_best_kept best of each
    select, and concentrate takes the rows the best of those select on
    every row. A phase on m rows uses subsets of ceil(m h / n) rows;
    n_csteps counts the C-steps of all phases. Overflow is silent in the
    whole search: a model's fit marks a trial whose objective or estimate
    is not finite as degenerate. Every phase shares one workspace (_views).
    """
    work = [np.empty(0)] * 2
    if h >= n or n <= NESTED_MIN_N:
        starts = np.arange(n)[None] if h >= n else draw_starts(n, dim, config)
        return concentrate(make_model(slice(None), h), starts, h, config, work)
    rng = np.random.default_rng(config.seed)
    k = min(MAX_SUBSAMPLES, n // SUBSAMPLE_ROWS, config.n_starts)
    parts = np.sort(rng.permutation(n)[: k * SUBSAMPLE_ROWS].reshape(k, SUBSAMPLE_ROWS), axis=1)
    union = np.sort(parts, axis=None)

    def screen(rows, starts, optional=False):
        """The rows each kept trial's fit selects, as rows of the data, and the C-steps."""
        h_rows = -(-len(rows) * h // n)
        _, selected, _, _, n_csteps = _phase(make_model(rows, h_rows), starts, h_rows, 2,
                                             config.n_best_kept, optional=optional, work=work)
        return rows[selected], n_csteps

    found = [screen(p, _draw(rng, SUBSAMPLE_ROWS, dim, config.n_starts // k), True) for p in parts]
    starts, n_csteps = screen(union, np.searchsorted(union, np.vstack([r for r, _ in found])))
    search = concentrate(make_model(slice(None), h), starts, h, config, work)
    return replace(search, n_csteps=search.n_csteps + n_csteps + sum(c for _, c in found))
