"""Parameter-plane sweeps of the return multiplier.

For fixed (a, b), cells of a (c, d) grid are classified blue (multiplier
below 1, or orbit decayed below the norm floor), red (above 1, or orbit
exceeded the norm ceiling), white (parameters outside the valid region:
c > 0 with d < c^2/4, d <= 0, or b <= a^2/4), or gray (marginal value or
a per-cell numerical failure).  Cells are evaluated at their centers.

The regular segment of the return map depends only on (a, b), so it is
computed once per grid and reused for every cell.  Output is
deterministic.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import FilippovError
from .hybrid import (
    DEFAULT_EVENT_CONFIG,
    EventConfig,
    return_map,
)

__all__ = ["CellVerdict", "SweepGrid", "sweep", "render_grid",
           "cell_centers"]

log = logging.getLogger(__name__)


class CellVerdict(Enum):
    WHITE = "white"  # parameters not applicable
    BLUE = "blue"    # stable: multiplier < 1 or orbit converged
    RED = "red"      # unstable: multiplier > 1 or orbit diverged
    GRAY = "gray"    # marginal multiplier or per-cell failure


# LambdaResult.stable -> colour
_COLOUR = {True: CellVerdict.BLUE, False: CellVerdict.RED,
           None: CellVerdict.GRAY}
_PGM_LEVEL = {CellVerdict.WHITE: 255, CellVerdict.BLUE: 64,
              CellVerdict.RED: 160, CellVerdict.GRAY: 128}


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


def _white(a: float, b: float, c: float, d: float) -> bool:
    return b <= a * a / 4.0 or d <= 0.0 or (c > 0.0 and d < c * c / 4.0)


def _classify_cell(multiplier, a: float, b: float, c: float, d: float,
                   ) -> tuple[CellVerdict, str]:
    if _white(a, b, c, d):
        return CellVerdict.WHITE, "not-applicable"
    try:
        result = multiplier(c, d)  # cells on the validity boundary fail here
    except FilippovError as exc:
        log.warning("cell (c=%g, d=%g) failed: %s", c, d, exc)
        return CellVerdict.GRAY, f"error: {exc}"
    if result.defined:
        detail = repr(result.value)
    else:
        detail = "converged" if result.stable else "diverged"
    return _COLOUR[result.stable], detail


def sweep(a: float, b: float, c_range: tuple[float, float],
          d_range: tuple[float, float], nc: int, nd: int,
          cfg: EventConfig = DEFAULT_EVENT_CONFIG) -> SweepGrid:
    """Evaluate the verdict on an nc x nd grid of cell centers."""
    c_min, c_max = (float(v) for v in c_range)
    d_min, d_max = (float(v) for v in d_range)
    if nc < 2 or nd < 2:
        raise ValueError("need nc >= 2 and nd >= 2")
    if not (c_min < c_max and d_min < d_max):
        raise ValueError("ranges must be ordered")
    a = float(a)
    b = float(b)
    if b <= a * a / 4.0:
        warnings.warn(f"b = {b:g} <= a^2/4 = {a * a / 4.0:g}: the regular "
                      "piece does not rotate, every cell is not-applicable",
                      stacklevel=2)
        multiplier = None
    else:
        multiplier = return_map(a, b, cfg)
    d_values = cell_centers(d_min, d_max, nd)
    columns = [[_classify_cell(multiplier, a, b, c, d) for d in d_values]
               for c in cell_centers(c_min, c_max, nc)]
    return SweepGrid(a, b, c_min, c_max, d_min, d_max, nc, nd,
                     tuple(tuple(v for v, _ in col) for col in columns),
                     tuple(tuple(s for _, s in col) for col in columns))


def render_grid(grid: SweepGrid, path, fmt: str = "csv") -> None:
    """Write a grid as CSV (rows ``c,d,verdict,lambda_or_reason``, cells
    ordered by c then d) or as an ASCII PGM image (one pixel per cell,
    c left to right, d top-down from d_max; level mapping in the header
    comment).  Re-rendering an identical grid is byte-identical."""
    path = Path(path)
    if fmt == "csv":
        lines = ["c,d,verdict,lambda_or_reason"]
        c_values = cell_centers(grid.c_min, grid.c_max, grid.nc)
        d_values = cell_centers(grid.d_min, grid.d_max, grid.nd)
        for i, c in enumerate(c_values):
            for j, d in enumerate(d_values):
                detail = grid.details[i][j].replace(",", ";")
                lines.append(f"{c!r},{d!r},{grid.verdicts[i][j].value},"
                             f"{detail}")
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
        for j in range(grid.nd - 1, -1, -1):  # top row = largest d
            lines.append(" ".join(
                str(_PGM_LEVEL[grid.verdicts[i][j]]) for i in range(grid.nc)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    raise ValueError(f"unknown format {fmt!r} (use 'csv' or 'pgm')")
