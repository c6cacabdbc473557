"""Parameter-plane sweeps of the return multiplier.

For fixed (a, b), cells of a (c, d) grid are classified blue (multiplier
below 1, or an orbit proved to decay without returning), red (above 1,
or an orbit proved to grow without returning), white (parameters
outside the valid region: c > 0 with d < c^2/4, d <= 0, or
b <= a^2/4), or gray (marginal value or a per-cell numerical failure).
Cells are evaluated at their centers.

The regular segment of the return map depends only on (a, b), so it is
computed once per grid; the slides of all cells are then evaluated as
one array computation (:func:`filippov.hybrid.return_map`).  Output is
deterministic.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FilippovError
from .hybrid import (
    HybridParams,
    LambdaArrays,
    LambdaStatus,
    return_map,
    slide_domain,
)

__all__ = ["CellVerdict", "SweepGrid", "sweep", "render_grid",
           "cell_centers"]

log = logging.getLogger(__name__)


class CellVerdict(Enum):
    WHITE = "white"  # parameters not applicable
    BLUE = "blue"    # stable: multiplier < 1 or orbit converged
    RED = "red"      # unstable: multiplier > 1 or orbit diverged
    GRAY = "gray"    # marginal multiplier or per-cell failure


# render_grid reads a verdict's ``_value_``, a plain attribute: ``value``
# and an Enum member's hash run Python code, per cell
_PGM_LEVEL = {CellVerdict.WHITE.value: "255", CellVerdict.BLUE.value: "64",
              CellVerdict.RED.value: "160", CellVerdict.GRAY.value: "128"}
_UNDEFINED_TEXT = np.array(["diverged", "converged"], dtype=object)


@dataclass(frozen=True)
class SweepGrid:
    """Cell verdicts over a (c, d) rectangle for fixed (a, b).

    ``verdicts[i][j]`` and ``details[i][j]`` describe the cell with
    center (c_i, d_j); details carry the multiplier value or the reason
    a value was not assigned.
    """

    a: float
    b: float
    c_min: float
    c_max: float
    d_min: float
    d_max: float
    nc: int
    nd: int
    verdicts: tuple[tuple[CellVerdict, ...], ...]
    details: tuple[tuple[str, ...], ...]


def cell_centers(lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + (i + 0.5) * width for i in range(count)]


def sweep(a: float, b: float, c_range: tuple[float, float],
          d_range: tuple[float, float], nc: int, nd: int) -> SweepGrid:
    """Evaluate the verdict on an nc x nd grid of cell centers, all cells
    in one call of :func:`return_map`.  Gray cells are logged once per
    grid: their count and the first one's reason."""
    c_min, c_max = (float(v) for v in c_range)
    d_min, d_max = (float(v) for v in d_range)
    if nc < 2 or nd < 2:
        raise ValueError("need nc >= 2 and nd >= 2")
    if not (c_min < c_max and d_min < d_max):
        raise ValueError("ranges must be ordered")
    a = float(a)
    b = float(b)
    c_values = cell_centers(c_min, c_max, nc)
    d_values = cell_centers(d_min, d_max, nd)
    c, d = np.meshgrid(c_values, d_values, indexing="ij")
    verdicts = np.full((nc, nd), CellVerdict.WHITE, dtype=object)
    details = np.full((nc, nd), "not-applicable", dtype=object)
    if b <= a * a / 4.0:
        warnings.warn(f"b = {b:g} <= a^2/4 = {a * a / 4.0:g}: the regular "
                      "piece does not rotate, every cell is not-applicable",
                      stacklevel=2)
    else:
        multiplier = return_map(a, b)
        cells, white = slide_domain(c, d)
        # neither white nor valid: d = c^2/4 exactly with c > 0, or a
        # non-finite centre; HybridParams gives the reason
        for i, j in zip(*np.nonzero(~white & ~cells)):
            verdicts[i, j] = CellVerdict.GRAY
            try:
                HybridParams(a, b, c_values[i], d_values[j])
            except FilippovError as exc:
                details[i, j] = f"error: {exc}"
        verdicts[cells], details[cells] = _verdicts(
            multiplier(c[cells], d[cells]))
    gray = verdicts == CellVerdict.GRAY
    if gray.any():
        i, j = np.argwhere(gray)[0]
        log.warning("%d of %d cells gray (a=%g, b=%g); first (c=%g, d=%g): "
                    "%s", gray.sum(), nc * nd, a, b, c_values[i],
                    d_values[j], details[i, j])
    return SweepGrid(a, b, c_min, c_max, d_min, d_max, nc, nd,
                     tuple(map(tuple, verdicts.tolist())),
                     tuple(map(tuple, details.tolist())))


def _verdicts(lam: LambdaArrays):
    """Colours and details of multipliers: stable blue, unstable red,
    marginal gray; a value, ``exp(log Lambda)`` where the value leaves
    the float range, or whether the orbit converged or diverged."""
    stable = lam.stable
    colour = np.where(stable, CellVerdict.BLUE, CellVerdict.RED)
    colour[lam.status == LambdaStatus.MARGINAL] = CellVerdict.GRAY
    detail = _UNDEFINED_TEXT[stable.astype(np.intp)]
    value = lam.value
    numeric = ~np.isnan(value)
    detail[numeric] = list(map(repr, value[numeric].tolist()))
    beyond = (value == 0.0) | np.isinf(value)
    detail[beyond] = [f"exp({log!r})"
                      for log in lam.log_value[beyond].tolist()]
    return colour, detail


def render_grid(grid: SweepGrid, path, fmt: str = "csv") -> None:
    """Write a grid as CSV (rows ``c,d,verdict,lambda_or_reason``, cells
    ordered by c then d) or as an ASCII PGM image (one pixel per cell,
    c left to right, d top-down from d_max; level mapping in the header
    comment).  Re-rendering an identical grid is byte-identical."""
    path = Path(path)
    if fmt == "csv":
        lines = ["c,d,verdict,lambda_or_reason"]
        d_text = [repr(d) for d in cell_centers(grid.d_min, grid.d_max,
                                                grid.nd)]
        for c, verdicts, details in zip(
                cell_centers(grid.c_min, grid.c_max, grid.nc),
                grid.verdicts, grid.details):
            head = repr(c)
            lines += [f"{head},{d},{v._value_},{s.replace(',', ';')}"
                      for d, v, s in zip(d_text, verdicts, details)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    if fmt == "pgm":
        lines = [
            "P2",
            "# levels: 255=white (not applicable), 64=blue (stable), "
            "160=red (unstable), 128=gray (marginal/failed)",
            f"{grid.nc} {grid.nd}",
            "255",
        ]
        rows = list(zip(*grid.verdicts))  # rows[j]: the cells at d_j
        lines += [" ".join([_PGM_LEVEL[v._value_] for v in row])
                  for row in reversed(rows)]  # top row = largest d
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    raise ValueError(f"unknown format {fmt!r} (use 'csv' or 'pgm')")
