"""Reference simulation and series file format, one numpy scalar at a time.

`simulate_series` runs the structural recursion on a numpy array indexed one
value at a time, `save_series` formats each value with `repr(float(x))` and
`load_series` parses each cell with `float`.  `svarspec.simulate` and
`svarspec.io` must give the same doubles, the same file bytes, and the same
exception class on malformed text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from svarspec.simulate import (SeriesSample, SimulationError,
                               _contemporaneous_order)


def simulate_series(tsg, params, length: int, burn_in: int = 1000,
                    seed: int = 0) -> SeriesSample:
    if length <= 0:
        raise SimulationError("length must be positive")
    if burn_in < 0:
        raise SimulationError("burn_in must be non-negative")
    labels = tsg.base.vertices
    index = {v: i for i, v in enumerate(labels)}
    order = _contemporaneous_order(tsg)

    terms: dict[str, list[tuple[int, int, float]]] = {v: [] for v in labels}
    for (a, b, k), c in params.cross.items():
        terms[b].append((index[a], k, float(c)))
    for (v, k), c in params.auto.items():
        terms[v].append((index[v], k, float(c)))

    total = burn_in + length
    rng = np.random.default_rng(seed)
    scale = np.array([float(params.noise[v]) for v in labels]) ** 0.5
    noise = rng.standard_normal((total, len(labels))) * scale

    values = np.zeros((total, len(labels)))
    for t in range(total):
        for v in order:
            i = index[v]
            acc = noise[t, i]
            for (j, k, c) in terms[v]:
                if k <= t:
                    acc += c * values[t - k, j]
            values[t, i] = acc
    return SeriesSample(labels, values[burn_in:])


def save_series(series: SeriesSample, path) -> None:
    header = "\t".join(series.labels)
    body = "\n".join(
        "\t".join(repr(float(x)) for x in row) for row in series.values
    )
    Path(path).write_text(header + "\n" + body + "\n")


def load_series(path) -> SeriesSample:
    lines = Path(path).read_text().strip("\n").splitlines()
    if not lines:
        raise ValueError("series file has no header line")
    labels = tuple(lines[0].split("\t"))
    values = np.array([[float(x) for x in line.split("\t")] for line in lines[1:]])
    return SeriesSample(labels, values)
