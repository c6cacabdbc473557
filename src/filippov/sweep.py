"""Parameter-plane sweeps of the return multiplier.

For fixed (a, b), cells of a (c, d) grid are classified blue (multiplier
below 1, or an orbit proved to decay without returning), red (above 1,
or an orbit proved to grow without returning), white (parameters
outside the valid region: c > 0 with d < c^2/4, d <= 0, or
b <= a^2/4), or gray (marginal value or a per-cell numerical failure).
Cells are evaluated at their centers.

The regular segment of the return map depends only on (a, b), so it is
computed once per grid; the slides of all cells are then evaluated as
one array computation (:func:`filippov.hybrid.return_map`).  The work
on the (c, d) window alone is kept for the last window swept, which
the panels of one window share.  Output is deterministic.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import stat
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConstraintViolationError, FilippovError
from .hybrid import LambdaArrays, return_map, slide_blocks, slide_domain

__all__ = ["CellVerdict", "SweepGrid", "sweep", "render_grid",
           "cell_centers", "MAX_CELLS"]

# The most cells of a grid: a 500 x 500 sweep with its render peaked
# at about 294 B a cell, so about 1.2 GB
MAX_CELLS = 4_000_000

log = logging.getLogger(__name__)


class CellVerdict(Enum):
    WHITE = "white"  # parameters not applicable
    BLUE = "blue"    # stable: multiplier < 1 or orbit converged
    RED = "red"      # unstable: multiplier > 1 or orbit diverged
    GRAY = "gray"    # marginal multiplier or per-cell failure


# sweep keeps a verdict as its index in CellVerdict until it builds the
# grid; render_grid reads a verdict's ``_value_``, a plain attribute:
# ``value`` and an Enum member's hash run Python code, per cell
_VERDICTS = np.array(list(CellVerdict), dtype=object)
_BLUE, _RED, _GRAY = range(1, 4)  # 0 is white
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
    """The centres of ``count`` cells of equal width that span [lo, hi],
    in order: lo + (i + 1/2) (hi - lo) / count."""
    width = (hi - lo) / count
    return [lo + (i + 0.5) * width for i in range(count)]


@lru_cache(maxsize=4)
def _texts(lo: float, hi: float, count: int) -> tuple[str, ...]:
    """The ``repr`` texts of the cell centres of one axis."""
    return tuple(map(repr, cell_centers(lo, hi, count)))


@lru_cache(maxsize=1)
def _window(c_min: float, c_max: float, d_min: float, d_max: float,
            nc: int, nd: int):
    """The work of a sweep on its (c, d) window alone, read-only: the
    valid cells, their slide blocks, the boundary cells, their reasons."""
    c_values = cell_centers(c_min, c_max, nc)
    d_values = cell_centers(d_min, d_max, nd)
    c = np.repeat(c_values, nd).reshape(nc, nd)
    d = np.tile(d_values, nc).reshape(nc, nd)
    cells, white = slide_domain(c, d)
    boundary = np.nonzero(~white & ~cells)  # d = c^2/4 with c > 0
    reasons = []
    for i, j in zip(*boundary):
        try:
            slide_blocks(c_values[i], d_values[j])
        except FilippovError as exc:
            reasons.append(f"error: {exc}")
    for array in (cells, *boundary):
        array.flags.writeable = False
    return cells, slide_blocks(c[cells], d[cells]), boundary, tuple(reasons)


def sweep(a: float, b: float, c_range: tuple[float, float],
          d_range: tuple[float, float], nc: int, nd: int) -> SweepGrid:
    """Evaluate the verdict on an nc x nd grid of cell centers, all cells
    in one call of :func:`return_map`.  Gray cells are logged once per
    grid: their count and the first one's reason.  Raises ValueError,
    before anything is allocated, for counts below 2 or for more than
    :data:`MAX_CELLS` cells."""
    c_min, c_max = (float(v) for v in c_range)
    d_min, d_max = (float(v) for v in d_range)
    nc, nd = operator.index(nc), operator.index(nd)
    if nc < 2 or nd < 2:
        raise ValueError("need nc >= 2 and nd >= 2")
    if nc * nd > MAX_CELLS:
        raise ValueError(f"nc * nd = {nc * nd} cells exceeds the limit "
                         f"of {MAX_CELLS}")
    if not (c_min < c_max and d_min < d_max):
        raise ValueError("ranges must be ordered")
    if not (math.isfinite(c_max - c_min) and math.isfinite(d_max - d_min)):
        raise ValueError("ranges must be finite, with a finite width")
    a = float(a)
    b = float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ConstraintViolationError(f"parameter {name} is not finite")
    code = np.zeros((nc, nd), np.intp)  # the index of a CellVerdict
    details = np.empty((nc, nd), object)
    details.fill("not-applicable")
    if b <= a * a / 4.0:
        warnings.warn(f"b = {b:g} <= a^2/4 = {a * a / 4.0:g}: the regular "
                      "piece does not rotate, every cell is not-applicable",
                      stacklevel=2)
    else:
        multiplier = return_map(a, b)
        cells, blocks, boundary, reasons = _window(c_min, c_max, d_min,
                                                   d_max, nc, nd)
        code[boundary] = _GRAY
        details[boundary] = reasons
        code[cells], details[cells] = _verdicts(multiplier(blocks))
    gray = code == _GRAY
    if gray.any():
        i, j = np.argwhere(gray)[0]
        log.warning("%d of %d cells gray (a=%g, b=%g); first (c=%g, d=%g): "
                    "%s", gray.sum(), nc * nd, a, b,
                    cell_centers(c_min, c_max, nc)[i],
                    cell_centers(d_min, d_max, nd)[j], details[i, j])
    return SweepGrid(a, b, c_min, c_max, d_min, d_max, nc, nd,
                     tuple(map(tuple, _VERDICTS[code].tolist())),
                     tuple(map(tuple, details.tolist())))


def _verdicts(lam: LambdaArrays):
    """Verdict codes (indices into CellVerdict) and details of
    multipliers: stable blue, unstable red, marginal gray; a value,
    ``exp(log Lambda)`` where the value leaves the float range, or
    whether the orbit converged or diverged."""
    stable = lam.stable
    code = np.where(stable, _BLUE, _RED)
    code[lam.marginal] = _GRAY
    detail = _UNDEFINED_TEXT[stable.astype(np.intp)]
    numeric = ~np.isnan(lam.log_value)
    log_value = lam.log_value[numeric]
    with np.errstate(over="ignore", under="ignore"):
        value = np.exp(log_value)
    text = list(map(repr, value.tolist()))
    for k in np.flatnonzero((value == 0.0) | np.isinf(value)):
        text[k] = f"exp({float(log_value[k])!r})"
    detail[numeric] = text
    return code, detail


def render_grid(grid: SweepGrid, path, fmt: str = "csv") -> None:
    """Write a grid as CSV (rows ``c,d,verdict,lambda_or_reason``, cells
    ordered by c then d) or as an ASCII PGM image (one pixel per cell,
    c left to right, d top-down from d_max; level mapping in the header
    comment).  Re-rendering an identical grid is byte-identical."""
    if fmt == "csv":
        lines = ["c,d,verdict,lambda_or_reason"]
        d_text = _texts(grid.d_min, grid.d_max, grid.nd)
        for head, verdicts, details in zip(
                _texts(grid.c_min, grid.c_max, grid.nc),
                grid.verdicts, grid.details):
            if "," in "".join(details):  # only a reason holds a comma
                details = [s.replace(",", ";") for s in details]
            lines += [f"{head},{d},{v._value_},{s}"
                      for d, v, s in zip(d_text, verdicts, details)]
        _write_over(path, "\n".join(lines) + "\n")
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
        _write_over(path, "\n".join(lines) + "\n")
        return
    raise ValueError(f"unknown format {fmt!r} (use 'csv' or 'pgm')")


def _write_over(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the bytes of ``path`` (created with
    the mode ``open`` gives) by ``os.write`` calls, each taking the bytes
    the last one left, then cut a regular file to the bytes written
    where it was longer before; a device or a FIFO is never truncated.

    The file is not truncated to zero first, as ``open(path, "w")``
    does: on ext4 that truncation starts writeback at close
    (``auto_da_alloc``), which costs about 100 us per rewritten 20 KB
    file; a 16 KB rewrite here takes 5-7 us (2 vCPU).  Neither way
    calls ``fsync``, so a crash during the write may leave the old
    bytes, the new ones, or a mix of both at page granularity.  A write
    that fails part-way (ENOSPC) raises, and may leave old bytes past
    the new ones.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
