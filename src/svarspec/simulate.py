"""Time-domain SVAR simulation and nonparametric spectral estimation.

Simulation runs the structural recursion with Gaussian noise from numpy's
default PCG64 generator, seeded explicitly.  Estimation is a Welch-style
averaged periodogram with a Hann window, evaluated by direct DFT at
arbitrary angular frequencies in [0, pi].

Each simulated value is its noise draw, then `acc += c * x` for each cross
term in `params.cross` order and then each auto term: the order of the
scalar loop kept in `tests/series_reference.py`.  The recursion visits the
strong components of the process graph, each after every component that
reaches it, and writes each vertex's values into its column of the noise
array; within a component the vertices take each step in contemporaneous
(lag-0 topological) order.  A vertex's leading terms whose sources lie
outside its component read only final values, so numpy adds each one for
every step at once (`col[k:] += c * x_j[:total - k]`).  The terms left (auto-lags, and every
term from the first in-component source on) run one step at a time on
Python floats, `STEP_BLOCK` steps at a time.  Each value still gets the same
IEEE products and sums in the same order, so every value, and every byte of
a saved series, is what the scalar loop gives for the same seed.

This is the only module that touches floating point; the estimator is
normalized so that it targets the exact spectrum evaluated at exp(-i*theta)
(see `exact_spectrum_values`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CyclicGraphError, TimeSeriesGraph
from .ratlinalg import RatMatrix
from .svar import SvarParams

#: Most values (burn-in plus kept steps, times vertices) one simulation may
#: produce; a larger request fails before anything is drawn.
#: The values live in one array of 8 B each, and Python floats only for a
#: block of steps.  At the limit a process peaked at 131 MiB for 10 vertices
#: x 10^6 steps and 124 MiB for 1 x 10^7 in `simulate_series`, and at 125 MiB
#: for the whole `simulate` command on 1 x 10^7 (Python 3.11, numpy 2.4).
#: `estimate` on the 10 x 10^6 file (196 MB) peaked at 196 MiB, about twice
#: the 76 MiB array, since `load_series` reads it a block at a time.
MAX_SERIES_VALUES = 10_000_000

#: Steps of the scalar recursion held as Python floats at a time.
STEP_BLOCK = 2**16

#: Largest condition number of a block that `empirical_ci_test` inverts.
MAX_CONDITION = 1e10


class SimulationError(ValueError):
    """Simulation preconditions are violated."""


class EstimationError(ValueError):
    """Estimation preconditions are violated (bad segmentation, short series)."""


class IllConditionedBlockError(ArithmeticError):
    """A conditioning block is numerically too ill-conditioned to invert."""


@dataclass(frozen=True)
class SeriesSample:
    """Simulated sample: values[t, i] is vertex labels[i] at time t."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate series labels in {self.labels}")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.labels):
            raise ValueError("values grid does not match labels")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series contains non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectrumEstimate:
    """Per-frequency cross-spectral matrices over the series labels, Hann-windowed."""

    labels: tuple[str, ...]
    frequencies: tuple[float, ...]
    matrices: np.ndarray  # shape (len(frequencies), n, n), complex
    segment_count: int
    segment_length: int

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate estimate labels in {self.labels}")
        if any(b <= a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError("frequencies must be strictly increasing")
        n = len(self.labels)
        if self.matrices.shape != (len(self.frequencies), n, n):
            raise ValueError("matrix grid does not match labels/frequencies")
        herm = np.abs(self.matrices - np.conj(np.swapaxes(self.matrices, 1, 2)))
        if herm.max(initial=0.0) > 1e-8:
            raise ValueError("estimated matrices are not Hermitian")

    def block(self, index: int, rows, cols) -> np.ndarray:
        ri = [self.labels.index(r) for r in rows]
        ci = [self.labels.index(c) for c in cols]
        return self.matrices[index][np.ix_(ri, ci)]


def _contemporaneous_order(tsg: TimeSeriesGraph) -> tuple[str, ...]:
    """Topological order of the lag-0 edge subgraph; fails on lag-0 cycles."""
    base = tsg.base
    zero_edges = [e for e, lags in tsg.cross_lags.items() if 0 in lags]
    try:
        return base.with_edges(zero_edges).topological_order()
    except CyclicGraphError:
        raise SimulationError("contemporaneous (lag-0) effects contain a cycle") from None


def simulate_series(tsg: TimeSeriesGraph, params: SvarParams, length: int,
                    burn_in: int = 1000, seed: int = 0) -> SeriesSample:
    """Draw one trajectory of the structural recursion; deterministic per seed.

    Raises ParameterError unless `params.validate(tsg)` passes: a coefficient
    the graph does not have would otherwise be simulated, or read a value that
    the topological order has not computed yet.
    """
    params.validate(tsg)
    return _simulate(tsg, params, length, burn_in, seed)


def _simulate(tsg: TimeSeriesGraph, params: SvarParams, length: int, burn_in: int,
              seed: int) -> SeriesSample:
    """`simulate_series` on parameters that are taken as valid."""
    labels = tsg.base.vertices
    if not labels:  # its series file would have no header for `load_series` to read
        raise SimulationError("the graph has no vertices to simulate")
    if length <= 0:
        raise SimulationError("length must be positive")
    if burn_in < 0:
        raise SimulationError("burn_in must be non-negative")
    n = len(labels)
    total = burn_in + length
    if total * n > MAX_SERIES_VALUES:
        raise SimulationError(
            f"{burn_in} + {length} steps of {n} vertices exceed the limit of "
            f"{MAX_SERIES_VALUES} simulated values"
        )
    index = {v: i for i, v in enumerate(labels)}
    order = [index[v] for v in _contemporaneous_order(tsg)]

    # per-vertex accumulation terms (source index, lag, float coefficient)
    terms: list[list[tuple[int, int, float]]] = [[] for _ in labels]
    for (a, b, k), c in params.cross.items():
        terms[index[b]].append((index[a], k, float(c)))
    for (v, k), c in params.auto.items():
        terms[index[v]].append((index[v], k, float(c)))

    rng = np.random.default_rng(seed)
    values = rng.standard_normal((total, n))
    values *= np.array([float(params.noise[v]) for v in labels]) ** 0.5

    for component in _components(terms, order):
        inside = set(component)
        loop = []
        for i in component:
            vterms = terms[i]
            lead = next((p for p, (j, _, _) in enumerate(vterms) if j in inside), len(vterms))
            col = values[:, i]
            for j, k, c in vterms[:lead]:  # every source value is final: a column at a time
                if k < total:
                    col[k:] += c * values[:total - k, j]
            if lead < len(vterms):
                loop.append((i, vterms[lead:]))
        if loop:
            _recurse(values, loop)
    return SeriesSample(labels, values[burn_in:])


def _components(terms, order: list[int]) -> list[list[int]]:
    """Strong components of the graph with an edge j -> i for each term (j, _, _)
    of `terms[i]`, each after every component that reaches it, and each one's
    vertices in `order`.  Two vertices share a component exactly when they have
    the same ancestors, and a component that reaches another has fewer."""
    ancestors = []
    for i in range(len(terms)):
        seen, stack = {i}, [i]
        while stack:
            for j, _, _ in terms[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        ancestors.append(frozenset(seen))
    groups: dict[frozenset, list[int]] = {}
    for i in order:
        groups.setdefault(ancestors[i], []).append(i)
    return sorted(groups.values(), key=lambda c: len(ancestors[c[0]]))


def _recurse(values: np.ndarray, loop) -> None:
    """Finish the columns of one component one step at a time, on Python lists
    of at most `lag + STEP_BLOCK` values each.

    `loop` pairs each vertex whose terms are not all added yet with the terms
    left, in contemporaneous order; every source outside the component is final.
    """
    total = values.shape[0]
    if len(loop) == 1 and len(loop[0][1]) == 1:
        # one vertex with one term left, its auto-lag k: the steps t = r, r + k,
        # r + 2k, ... form a first-order recursion; the term is skipped at t = r < k
        i, [(_, k, c)] = loop[0]
        for start in range(k, total, STEP_BLOCK):
            x = values[start - k:start + STEP_BLOCK, i].tolist()
            for r in range(k):
                prev = x[r]
                x[k + r::k] = [prev := a + c * prev for a in x[k + r::k]]
            values[start:start + STEP_BLOCK, i] = x[k:]
        return
    lag = max(k for _, rest in loop for _, k, _ in rest)
    sources = {i for i, _ in loop} | {j for _, rest in loop for j, _, _ in rest}
    for start in range(0, total, STEP_BLOCK):
        low, stop = max(start - lag, 0), min(start + STEP_BLOCK, total)
        lists = {j: values[low:stop, j].tolist() for j in sources}
        plan = [(lists[i], [(lists[j], k, c) for j, k, c in rest]) for i, rest in loop]
        # a lag k term is skipped while k > t: only steps t < lag test it,
        # and those come in a block with low = 0
        for t in range(start, min(lag, stop)):
            for x, rest in plan:
                acc = x[t]
                for src, k, c in rest:
                    if k <= t:
                        acc += c * src[t - k]
                x[t] = acc
        for t in range(max(start, lag) - low, stop - low):
            for x, rest in plan:
                acc = x[t]
                for src, k, c in rest:
                    acc += c * src[t - k]
                x[t] = acc
        for i, _ in loop:
            values[start:stop, i] = lists[i][start - low:]


def estimate_spectrum(series: SeriesSample, frequencies, segment_length: int,
                      overlap: float = 0.5) -> SpectrumEstimate:
    """Welch cross-spectral estimate at the given angular frequencies in [0, pi]."""
    freqs = tuple(float(f) for f in frequencies)
    if not all(0 <= f <= np.pi for f in freqs):
        raise EstimationError("frequencies must lie in [0, pi]")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise EstimationError("frequencies must be strictly increasing")
    T = series.length
    if segment_length <= 1 or segment_length > T:
        raise EstimationError(f"segment_length {segment_length} invalid for series of length {T}")
    if not 0 <= overlap < 1:
        raise EstimationError("overlap must be in [0, 1)")
    hop = max(1, int(round(segment_length * (1 - overlap))))
    starts = range(0, T - segment_length + 1, hop)
    window = np.hanning(segment_length)
    norm = float(np.sum(window**2))
    n = len(series.labels)
    grid = np.arange(segment_length)
    kernel = np.exp(-1j * np.outer(grid, np.array(freqs)))  # (L, F)
    acc = np.zeros((len(freqs), n, n), dtype=complex)
    count = 0
    for s in starts:
        seg = series.values[s:s + segment_length] * window[:, None]  # (L, n)
        coeffs = seg.T @ kernel  # (n, F)
        acc += np.einsum("af,bf->fab", coeffs, np.conj(coeffs))
        count += 1
    matrices = acc / (count * norm)
    matrices = 0.5 * (matrices + np.conj(np.swapaxes(matrices, 1, 2)))
    return SpectrumEstimate(series.labels, freqs, matrices, count, segment_length)


def exact_spectrum_values(S: RatMatrix, frequencies) -> np.ndarray:
    """Evaluate an exact spectrum matrix at z = exp(-i*theta) for each theta.

    This is the evaluation convention the Welch estimator targets: its DFT
    kernel exp(-i*theta*n) pairs lag k with z^k at z = exp(-i*theta).
    """
    frequencies = tuple(frequencies)
    n = len(S.row_labels)
    out = np.zeros((len(frequencies), n, n), dtype=complex)
    for f, theta in enumerate(frequencies):
        z = np.exp(-1j * float(theta))
        for i in range(n):
            for j in range(n):
                out[f, i, j] = complex(S.at(i, j)(z))
    return out


def empirical_ci_test(estimate: SpectrumEstimate, X, Y, Z, threshold: float = 0.1) -> bool:
    """Thresholded numeric conditional-independence verdict.

    Computes the conditional cross-spectrum (Schur complement) at every
    frequency, normalizes each entry by the conditional auto-spectra, and
    reports independence when the largest magnitude stays below the
    threshold.  This decision rule is a placeholder; it is not a calibrated
    statistical test.
    """
    X, Y, Z = sorted(X), sorted(Y), sorted(Z)
    if set(X) & set(Y) or set(X) & set(Z) or set(Y) & set(Z):
        raise ValueError("X, Y, Z must be pairwise disjoint")
    worst = 0.0
    for f in range(len(estimate.frequencies)):
        joint = sorted(set(X) | set(Y))
        S_jj = estimate.block(f, joint, joint)
        if Z:
            S_zz = estimate.block(f, Z, Z)
            if np.linalg.cond(S_zz) > MAX_CONDITION:
                raise IllConditionedBlockError(
                    f"conditioning block at frequency index {f} has condition number "
                    f"> {MAX_CONDITION:g}"
                )
            S_jz = estimate.block(f, joint, Z)
            cond = S_jj - S_jz @ np.linalg.solve(S_zz, np.conj(S_jz.T))
        else:
            cond = S_jj
        diag = np.real(np.diag(cond)).clip(min=1e-300)
        xi = [joint.index(x) for x in X]
        yi = [joint.index(y) for y in Y]
        for i in xi:
            for j in yi:
                coherence = abs(cond[i, j]) / np.sqrt(diag[i] * diag[j])
                worst = max(worst, float(coherence))
    return worst < threshold
