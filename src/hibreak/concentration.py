"""Batched concentration-step search shared by LTS and MCD.

FAST-LTS and FAST-MCD (Rousseeuw & Van Driessen 2006 and 1999) share one
schedule: many small start subsets, two concentration steps (C-steps)
each, then the n_best_kept best trials iterate to convergence. A C-step
refits on the h rows that score lowest under the current fit, which never
increases the objective. Here a block of trials runs as stacked arrays:
(T, n) scores, their (T, n) 0/1 mask of the h lowest, and fits from the
mask times per-row terms (one matmul). A degenerate trial is dropped alone.

Above NESTED_MIN_N rows the starts run on disjoint random subsamples, the
best trials of each meet again on the union of the subsamples, and only
the best of those are refined on all rows (the nested extension of both
papers), so the cost of the start phase does not grow with n.
"""

from __future__ import annotations

import itertools
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

# Memory budget of a block of T trials: entries of one of its (T, n) score
# arrays or (T, c) sums of the n x c per-row terms.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class Model:
    """The model-specific pieces of a search.

    fit(terms summed over each trial's rows, row count) returns (params,
    objectives, ok): a tuple of arrays with a leading trial axis, and the
    (T,) objectives and non-degenerate mask. score(params) gives the (T, n)
    scores a C-step ranks rows by. refit is the estimator's exact subset
    evaluator (lts.evaluate_subsets or mcd.evaluate_subsets, which its
    oracle and public C-step use too); the winner's estimate comes from it.
    """

    terms: np.ndarray
    fit: Callable[[np.ndarray, int], tuple[tuple, np.ndarray, np.ndarray]]
    score: Callable[[tuple], np.ndarray]
    refit: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, Callable[[int], Any]]]


@dataclass(frozen=True)
class Search:
    objective: float
    estimate: Any
    rows: np.ndarray
    converged: bool
    n_csteps: int


def lowest_mask(scores: np.ndarray, h: int) -> np.ndarray:
    """0/1 mask of the h lowest of each row of scores; ties go to the lowest index."""
    kth = np.partition(scores, h - 1, axis=1)[:, h - 1 : h]
    below = scores < kth
    tied = scores == kth
    room = h - below.sum(axis=1, keepdims=True)
    if np.any(tied.sum(axis=1, keepdims=True) > room):
        tied &= np.cumsum(tied, axis=1) <= room
    return (below | tied).astype(float)


def lowest_rows(scores: np.ndarray, h: int) -> np.ndarray:
    """Ascending indices of the h lowest scores; ties go to the lowest index."""
    return np.flatnonzero(lowest_mask(scores[None], h)[0])


def _draw(rng: np.random.Generator, n: int, dim: int, count: int) -> np.ndarray:
    return np.array([np.sort(rng.choice(n, size=dim + 1, replace=False)) for _ in range(count)])


def draw_starts(n: int, dim: int, config) -> np.ndarray:
    """(T, dim+1) start rows: every subset on small instances, else seeded draws."""
    if n <= EXHAUSTIVE_MAX_N and dim <= EXHAUSTIVE_MAX_DIM:
        return np.array(list(itertools.combinations(range(n), dim + 1)))
    return _draw(np.random.default_rng(config.seed), n, dim, config.n_starts)


def _take(params: tuple, index) -> tuple:
    return tuple(a[index] for a in params)


def _c_step(model: Model, params: tuple, h: int):
    mask = lowest_mask(model.score(params), h)
    return (*model.fit(mask @ model.terms, h), mask)


def _block(model: Model) -> int:
    return max(1, _BLOCK_ELEMENTS // max(model.terms.shape))


def _screen(model: Model, starts: np.ndarray, h: int, n_keep: int) -> tuple[tuple, int]:
    """Fit each start from its rows, take two C-steps, keep the n_keep best.

    Returns (objectives, trials, *params) of the kept trials, ranked by
    (objective, trial index), and the C-steps trials completed without
    turning degenerate.
    """
    n = model.terms.shape[0]
    block = _block(model)
    n_csteps = 0
    kept = None  # (objectives, trials, *params) of the best n_keep so far
    for first in range(0, len(starts), block):
        trial = np.arange(first, min(first + block, len(starts)))
        mask = np.zeros((len(trial), n))
        np.put_along_axis(mask, starts[trial], 1.0, axis=1)
        params, objective, ok = model.fit(mask @ model.terms, starts.shape[1])
        trial, params = trial[ok], _take(params, ok)
        for _ in range(2):
            params, objective, ok, _ = _c_step(model, params, h)
            trial, params, objective = trial[ok], _take(params, ok), objective[ok]
            n_csteps += len(trial)
        merged = (objective, trial, *params)
        if kept is not None:
            merged = tuple(map(np.concatenate, zip(kept, merged)))
        kept = _take(merged, np.lexsort((merged[1], merged[0]))[:n_keep])
    if kept is None:
        raise AllStartsDegenerate("every trial of the previous phase turned degenerate")
    return kept, n_csteps


def concentrate(model: Model, starts: np.ndarray, h: int, config) -> Search:
    """Two C-steps from each start, then refine the config.n_best_kept best.

    A start is any set of rows, given as a row of starts. Trials rank by
    (objective, trial index); a refined trial stops when it converges or
    after config.max_csteps. The winner is the refined trial with the
    lowest (refit objective, trial index). n_csteps counts the C-steps
    trials completed without turning degenerate.
    """
    kept, n_csteps = _screen(model, starts, h, config.n_best_kept)
    block = _block(model)

    finished = []  # (trial, converged, mask) of each refined trial
    for first in range(0, len(kept[1]), block):
        objective, trial, *params = _take(kept, slice(first, first + block))
        for step in range(config.max_csteps):
            params, new_objective, ok, mask = _c_step(model, params, h)
            n_csteps += int(ok.sum())
            converged = objective - new_objective <= CONVERGENCE_RTOL * objective
            done = ok & (converged | (step == config.max_csteps - 1))
            finished += [(trial[t], converged[t], mask[t]) for t in np.flatnonzero(done)]
            live = ok & ~done
            if not live.any():
                break
            objective, trial, params = new_objective[live], trial[live], _take(params, live)

    best = None
    for trial, converged, mask in finished:
        rows = np.flatnonzero(mask)
        kept, objective, fit = model.refit(rows[None])
        if kept.size and (best is None or (objective[0], trial) < (best.objective, best_trial)):
            best = Search(float(objective[0]), fit(0), rows, bool(converged), n_csteps)
            best_trial = trial
    if best is None:
        raise AllStartsDegenerate("every start or refined trial turned degenerate")
    return best


def run_search(
    make_model: Callable[[np.ndarray, int], Model], n: int, dim: int, h: int, config
) -> Search:
    """The seeded search for the best h of n rows from (dim+1)-row starts.

    make_model(rows, h_rows) models the data indexed by rows (an index
    array, or a full slice that keeps the data as it is) with h_rows-row
    subsets. Above NESTED_MIN_N rows, each of k subsamples screens
    n_starts // k starts, their union screens the n_best_kept best of each
    as row subsets, and concentrate refines the best of those on every row.
    A phase on m rows uses subsets of ceil(m h / n) rows; n_csteps counts
    the C-steps of all phases.
    """
    if n <= NESTED_MIN_N:
        return concentrate(make_model(slice(None), h), draw_starts(n, dim, config), h, config)
    rng = np.random.default_rng(config.seed)
    k = min(MAX_SUBSAMPLES, n // SUBSAMPLE_ROWS, config.n_starts)
    parts = np.sort(rng.permutation(n)[: k * SUBSAMPLE_ROWS].reshape(k, SUBSAMPLE_ROWS), axis=1)
    union = np.sort(parts, axis=None)

    def screen(rows, starts):
        """The rows each kept trial's fit selects, as rows of the data, and the C-steps."""
        h_rows = -(-len(rows) * h // n)
        model = make_model(rows, h_rows)
        kept, n_csteps = _screen(model, starts, h_rows, config.n_best_kept)
        mask = lowest_mask(model.score(kept[2:]), h_rows)
        return rows[np.nonzero(mask)[1].reshape(-1, h_rows)], n_csteps

    found = [screen(part, _draw(rng, SUBSAMPLE_ROWS, dim, config.n_starts // k)) for part in parts]
    candidates = np.vstack([rows for rows, _ in found])
    starts, n_csteps = screen(union, np.searchsorted(union, candidates))
    search = concentrate(make_model(slice(None), h), starts, h, config)
    return replace(search, n_csteps=search.n_csteps + n_csteps + sum(c for _, c in found))
