import hashlib
import logging
import math
import os

import numpy as np
import pytest

from filippov.cli import FIG_PANEL_A, FIG_PANEL_B
from filippov.errors import ConstraintViolationError
from filippov.hybrid import (HybridParams, LambdaArrays, LambdaStatus,
                             MARGINAL_TOL, return_map, return_multiplier,
                             slide_blocks)
from filippov import sweep as sweep_module
from filippov.sweep import (MAX_CELLS, CellVerdict, SweepGrid, cell_centers,
                            render_grid, sweep)
from filippov.sweep import _verdicts
from oracles import marginal_d


def test_white_region_predicate():
    grid = sweep(0.2, 5.0, (-3, 3), (0, 10), 10, 10)
    cs = cell_centers(-3, 3, 10)
    ds = cell_centers(0, 10, 10)
    for i, c in enumerate(cs):
        for j, d in enumerate(ds):
            want_white = d <= 0 or (c > 0 and d < c * c / 4)
            assert (grid.verdicts[i][j] is CellVerdict.WHITE) == want_white


def test_invalid_ab_pair_warns_and_whitens():
    for a in (2.0, 1e200):  # a^2/4 overflows, but a is finite
        with pytest.warns(UserWarning, match="does not rotate"):
            grid = sweep(a, 0.5, (-1, 1), (0.5, 2.0), 4, 4)
        assert all(v is CellVerdict.WHITE
                   for col in grid.verdicts for v in col)


def test_coloring_matches_multiplier():
    grid = sweep(0.2, 5.0, (-2, 2), (0.25, 6.0), 8, 8)
    cs = cell_centers(-2, 2, 8)
    ds = cell_centers(0.25, 6.0, 8)
    rng = np.random.default_rng(4)
    for _ in range(20):
        i = rng.integers(0, 8)
        j = rng.integers(0, 8)
        verdict = grid.verdicts[i][j]
        if verdict is CellVerdict.WHITE:
            continue
        result = return_multiplier(HybridParams(0.2, 5.0, cs[i], ds[j]))
        if result.status is LambdaStatus.DEFINED:
            want = CellVerdict.BLUE if result.value < 1 else CellVerdict.RED
        elif result.status is LambdaStatus.UNDEFINED_CONVERGED:
            want = CellVerdict.BLUE
        elif result.status is LambdaStatus.UNDEFINED_DIVERGED:
            want = CellVerdict.RED
        else:
            want = CellVerdict.GRAY
        assert verdict is want


def test_known_stable_cell():
    # center the cell exactly on (c, d) = (0.2, 1.0)
    grid = sweep(0.2, 5.0, (0.2 - 0.05, 0.2 + 0.15), (0.9, 1.3), 2, 2)
    assert grid.verdicts[0][0] is CellVerdict.BLUE


def test_sweep_deterministic():
    kwargs = dict(c_range=(-1.5, 1.5), d_range=(0.2, 4.0), nc=6, nd=6)
    one = sweep(0.2, 5.0, **kwargs)
    two = sweep(0.2, 5.0, **kwargs)
    assert one == two


def test_render_csv_deterministic(tmp_path):
    with pytest.warns(UserWarning):
        grid = sweep(2.0, 0.2, (-1, 1), (0.5, 1.5), 2, 2)  # all white
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    render_grid(grid, path_a, "csv")
    render_grid(grid, path_b, "csv")
    text = path_a.read_text()
    assert text == path_b.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "c,d,verdict,lambda_or_reason"
    assert len(lines) == 5  # header + 4 cells
    assert all(line.endswith("white,not-applicable") for line in lines[1:])


def test_render_over_a_larger_file_leaves_only_the_new_bytes(tmp_path):
    # render_grid writes over the old bytes and then cuts the file at the
    # end of the new ones; a 40x40 grid's files are longer than 20x20's
    big = sweep(0.2, 5.0, (-3.0, 3.0), (0.0, 10.0), 40, 40)
    small = sweep(0.2, 5.0, (-3.0, 3.0), (0.0, 10.0), 20, 20)
    for fmt in ("csv", "pgm"):
        path, fresh = tmp_path / f"grid.{fmt}", tmp_path / f"fresh.{fmt}"
        render_grid(big, path, fmt)
        render_grid(small, path, fmt)
        render_grid(small, fresh, fmt)
        assert path.read_bytes() == fresh.read_bytes()


def test_render_through_short_writes_and_over_files_not_longer(
        tmp_path, monkeypatch):
    # render_grid writes by os.write until every byte is out, and cuts a
    # file only where it was longer: a file of equal length, or shorter,
    # holds exactly the new bytes afterwards
    grid = sweep(0.2, 5.0, (-3.0, 3.0), (0.0, 10.0), 20, 20)
    write = os.write
    for fmt in ("csv", "pgm"):
        fresh, short = tmp_path / f"fresh.{fmt}", tmp_path / f"short.{fmt}"
        render_grid(grid, fresh, fmt)
        new = fresh.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr("filippov.sweep.os.write",
                          lambda fd, data: write(fd, data[:7]))
            render_grid(grid, short, fmt)
        assert short.read_bytes() == new
        for old in (b"x" * len(new), b"x" * (len(new) // 2)):
            path = tmp_path / f"over.{fmt}"
            path.write_bytes(old)
            render_grid(grid, path, fmt)
            assert path.read_bytes() == new


def test_csv_keeps_log_lambda_beyond_the_float_range(tmp_path):
    # every applicable cell returns near e^3140, beyond the float range:
    # its value reads inf, and the CSV keeps exp(log Lambda)
    grid = sweep(2.0, 1.000001, (-3, 3), (0, 10), 4, 4)
    cs, ds = cell_centers(-3, 3, 4), cell_centers(0, 10, 4)
    checked = 0
    for i, c in enumerate(cs):
        for j, d in enumerate(ds):
            if grid.verdicts[i][j] is CellVerdict.WHITE:
                continue
            want = return_multiplier(HybridParams(2.0, 1.000001, c, d))
            log_text = grid.details[i][j][4:-1]
            assert want.value == math.inf
            assert grid.details[i][j] == f"exp({float(log_text)!r})"
            assert abs(float(log_text) - want.log_value) \
                <= 1e-12 * want.log_value
            checked += 1
    assert checked == 15
    render_grid(grid, tmp_path / "g.csv", "csv")
    rows = tmp_path.joinpath("g.csv").read_text().splitlines()[1:]
    assert sum(row.split(",")[3].startswith("exp(") for row in rows) == 15
    # and below it, where the value reads 0.0
    lam = LambdaArrays(np.zeros(3, np.intp), np.array([-800.0, 800.0, -0.5]))
    assert _verdicts(lam)[1].tolist() == \
        ["exp(-800.0)", "exp(800.0)", repr(math.exp(-0.5))]


def test_render_pgm_shape_and_levels(tmp_path):
    grid = sweep(0.2, 5.0, (-1, 1), (0.25, 2.0), 5, 3)
    path = tmp_path / "grid.pgm"
    render_grid(grid, path, "pgm")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "P2"
    assert lines[1].startswith("#")
    assert lines[2] == "5 3"
    assert lines[3] == "255"
    rows = [line.split() for line in lines[4:]]
    assert len(rows) == 3 and all(len(r) == 5 for r in rows)
    levels = {int(v) for row in rows for v in row}
    assert levels <= {255, 64, 160, 128}
    assert path.read_text() == path.read_text()


def test_render_rejects_unknown_format(tmp_path):
    grid = sweep(0.2, 5.0, (-1, 1), (0.25, 2.0), 2, 2)
    with pytest.raises(ValueError):
        render_grid(grid, tmp_path / "x.bin", "png")


def test_sweep_validates_grid():
    with pytest.raises(ValueError):
        sweep(0.2, 5.0, (-1, 1), (0, 1), 1, 4)
    with pytest.raises(ValueError):
        sweep(0.2, 5.0, (1, -1), (0, 1), 4, 4)
    # ordered, but hi - lo is not finite: the centres would read inf
    with pytest.raises(ValueError, match="finite width"):
        sweep(0.2, 5.0, (-1e308, 1e308), (0, 10), 4, 4)
    with pytest.raises(ValueError, match="finite width"):
        sweep(0.2, 5.0, (-1, 1), (0, math.inf), 4, 4)


@pytest.mark.parametrize("a, b, name", [
    (math.inf, 5.0, "a"), (math.nan, 5.0, "a"), (-math.inf, 5.0, "a"),
    (0.2, math.inf, "b"), (0.2, math.nan, "b")])
def test_sweep_refuses_non_finite_a_or_b(a, b, name):
    with pytest.raises(ConstraintViolationError,
                       match=f"^parameter {name} is not finite$"):
        sweep(a, b, (-1, 1), (0, 10), 4, 4)


def test_cell_on_validity_boundary_is_gray():
    # d = c^2/4 exactly with c > 0 is not white (strict inequality) but
    # the parameters are invalid: the cell fails gray with a reason.  The
    # first cell's center is exactly (c, d) = (2, 1).
    grid = sweep(0.2, 5.0, (1.5, 3.5), (0.5, 2.5), 2, 2)
    assert grid.verdicts[0][0] is CellVerdict.GRAY
    assert grid.details[0][0].startswith("error:")


def test_csv_escapes_the_comma_of_a_reason(tmp_path):
    grid = sweep(0.2, 5.0, (1.5, 3.5), (0.5, 2.5), 2, 2)
    render_grid(grid, tmp_path / "g.csv", "csv")
    rows = (tmp_path / "g.csv").read_text().splitlines()
    assert rows[1] == "2.0,1.0,gray,error: with c = 2 > 0; d = 1 must " \
        "exceed c^2/4 = 1"
    assert grid.details[0][0].count(",") == 1
    assert all(len(row.split(",")) == 4 for row in rows)


def test_marginal_cell_is_gray():
    # log Lambda crosses 0 near d = 5.4548026200223 at (0.2, 5, -0.5):
    # bisect it on the scalar path, then centre a cell there
    lo = marginal_d(0.2, 5.0, -0.5, 5.4, 5.5)
    grid = sweep(0.2, 5.0, (-0.625, -0.125), (lo - 0.01, lo + 0.03), 2, 2)
    c, d = cell_centers(-0.625, -0.125, 2)[0], \
        cell_centers(lo - 0.01, lo + 0.03, 2)[0]
    assert c == -0.5 and abs(d - lo) < 1e-14
    lam = return_map(0.2, 5.0)(slide_blocks(c, d))
    assert lam.status == LambdaStatus.MARGINAL
    assert abs(lam.log_value) <= MARGINAL_TOL
    assert return_multiplier(HybridParams(0.2, 5.0, c, d)).status \
        is LambdaStatus.MARGINAL
    assert grid.verdicts[0][0] is CellVerdict.GRAY
    assert grid.details[0][0] == repr(float(lam.value))
    assert grid.verdicts[0][1] is CellVerdict.RED


def test_verdicts_of_every_status():
    # codes: the index of each LambdaStatus
    lam = LambdaArrays(np.array([0, 0, 1, 2, 3]),
                       np.array([-0.5, 0.5, 1e-12, np.nan, np.nan]))
    code, detail = _verdicts(lam)
    assert [list(CellVerdict)[k] for k in code] == [
        CellVerdict.BLUE, CellVerdict.RED, CellVerdict.GRAY,
        CellVerdict.BLUE, CellVerdict.RED]
    assert detail.tolist() == [repr(math.exp(-0.5)), repr(math.exp(0.5)),
                               repr(math.exp(1e-12)), "converged",
                               "diverged"]


def test_gray_cells_logged_once_per_grid(caplog):
    # two cell centres lie on d = c^2/4 with c > 0: (2, 1) and (4, 4)
    with caplog.at_level(logging.WARNING, logger="filippov.sweep"):
        grid = sweep(0.2, 5.0, (0.5, 4.5), (-0.5, 4.5), 4, 5)
    gray = [(i, j) for i in range(4) for j in range(5)
            if grid.verdicts[i][j] is CellVerdict.GRAY]
    assert gray == [(1, 1), (3, 4)]
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert message.startswith("2 of 20 cells gray")
    assert "(c=2, d=1)" in message and grid.details[1][1] in message


# SHA-256 over the 12 default fig-c panels at 40x40, in CLI panel order:
# of the PGM files, and of the CSV rows with each numeric multiplier
# replaced by "#" (its last digits may move; verdicts and reasons may not)
GOLDEN_PGM_SHA256 = \
    "14c012ca6371a07f207fc150de7dce528c6b7e30620cbff90c5eced9e4866e07"
GOLDEN_CSV_SHA256 = \
    "a92811399925032ad2e2a1438ff12ac908b18297fcafd8f11a20d3a68b27b2c7"


def _numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_default_panels_golden(tmp_path):
    pgm, csv = hashlib.sha256(), hashlib.sha256()
    for a in FIG_PANEL_A:
        for b in FIG_PANEL_B:
            grid = sweep(a, b, (-3.0, 3.0), (0.0, 10.0), 40, 40)
            render_grid(grid, tmp_path / "panel.pgm", "pgm")
            render_grid(grid, tmp_path / "panel.csv", "csv")
            pgm.update((tmp_path / "panel.pgm").read_bytes())
            for row in (tmp_path / "panel.csv").read_text().splitlines():
                c, d, verdict, detail = row.split(",")
                detail = "#" if _numeric(detail) else detail
                csv.update(f"{c},{d},{verdict},{detail}\n".encode())
    assert pgm.hexdigest() == GOLDEN_PGM_SHA256
    assert csv.hexdigest() == GOLDEN_CSV_SHA256


def _clear_caches():
    sweep_module._window.cache_clear()
    sweep_module._texts.cache_clear()


def _rendered(grid, path):
    render_grid(grid, path.with_suffix(".csv"), "csv")
    render_grid(grid, path.with_suffix(".pgm"), "pgm")
    return (path.with_suffix(".csv").read_bytes(),
            path.with_suffix(".pgm").read_bytes())


# window A holds two boundary cells (gray, with a reason) and white ones;
# B, C and D differ only in their counts, D from B in nd and from C in
# nc; (-3, 3.25) never returns, so no cell slides
WINDOWS = {"A": ((0.5, 4.5), (-0.5, 4.5), 4, 5),
           "B": ((-3.0, 3.0), (0.0, 10.0), 12, 10),
           "C": ((-3.0, 3.0), (0.0, 10.0), 10, 12),
           "D": ((-3.0, 3.0), (0.0, 10.0), 12, 12)}
PANELS = ((0.2, 5.0), (-1.2, 0.5), (-3.0, 3.25), (1.2, 2.0))


def test_interleaved_windows_match_sweeps_with_cleared_caches(tmp_path):
    runs = [(name, a, b) for name in "ABDCDA" for a, b in PANELS]
    runs += [(name, 0.2, 5.0) for name in "BDCDA"] * 2  # a panel a window
    cached = []
    for name, a, b in runs:
        grid = sweep(a, b, *WINDOWS[name])
        cached.append((grid, _rendered(grid, tmp_path / "cached")))
    for (name, a, b), (grid, files) in zip(runs, cached):
        _clear_caches()
        fresh = sweep(a, b, *WINDOWS[name])
        assert grid == fresh
        _clear_caches()
        assert files == _rendered(fresh, tmp_path / "fresh")


def test_cached_window_arrays_are_read_only():
    sweep(0.2, 5.0, *WINDOWS["A"])
    (c_min, c_max), (d_min, d_max), nc, nd = WINDOWS["A"]
    cells, blocks, boundary, reasons = sweep_module._window(
        c_min, c_max, d_min, d_max, nc, nd)
    assert len(reasons) == 2 and reasons[0].startswith("error: with c = 2")
    for array in (cells, *blocks, *boundary):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_render_of_a_window_never_swept_keeps_its_bytes(tmp_path):
    # a grid built by hand: the CSV is the repr of each cell centre, and
    # the PGM the levels, as they were written before any cache
    _clear_caches()
    verdicts = (CellVerdict.BLUE, CellVerdict.RED, CellVerdict.GRAY)
    grid = SweepGrid(0.7, 1.9, -1.3, 2.9, 0.1, 3.7, 3, 4,
                     tuple((verdicts[i],) * 4 for i in range(3)),
                     tuple(("0.5", "2.0", "error: x, y", "converged")
                           for _ in range(3)))
    csv, pgm = _rendered(grid, tmp_path / "hand")
    rows = ["c,d,verdict,lambda_or_reason"]
    width_c, width_d = (2.9 - -1.3) / 3, (3.7 - 0.1) / 4
    for i in range(3):
        for j, detail in enumerate(grid.details[i]):
            rows.append(f"{-1.3 + (i + 0.5) * width_c!r},"
                        f"{0.1 + (j + 0.5) * width_d!r},"
                        f"{verdicts[i].value},{detail.replace(',', ';')}")
    assert csv == ("\n".join(rows) + "\n").encode()
    level = ("64", "160", "128")
    assert pgm == ("P2\n# levels: 255=white (not applicable), 64=blue "
                   "(stable), 160=red (unstable), 128=gray (marginal/failed)"
                   "\n3 4\n255\n" + f"{' '.join(level)}\n" * 4).encode()


@pytest.mark.parametrize("nc, nd", [(10 ** 6, 10 ** 6),
                                    (2, MAX_CELLS // 2 + 1)])
def test_oversized_grid_is_refused_before_anything_is_allocated(
        monkeypatch, nc, nd):
    def refuse(*args):
        raise AssertionError("cell centres computed for an oversized grid")

    monkeypatch.setattr(sweep_module, "cell_centers", refuse)
    with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_CELLS}"):
        sweep(0.2, 5.0, (-1, 1), (0, 1), nc, nd)


def test_grid_counts_must_be_integers():
    with pytest.raises(TypeError):
        sweep(0.2, 5.0, (-1, 1), (0, 1), 2.5, 4)
    grid = sweep(0.2, 5.0, (-1, 1), (0.5, 1), np.int64(3), 4)
    assert (grid.nc, grid.nd) == (3, 4) and type(grid.nc) is int
