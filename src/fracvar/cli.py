"""Batch driver: run configured experiments, emit CSV and a JSON summary.

    fracvar CONFIG.json [--output-dir DIR] [--jobs N]

Each config runs one command (see config.COMMANDS), usually over a sweep of
grid sizes.  load_config resolves the config once; the command's runner gets
that Problem and one grid per size; noether-check reads all three columns
from one chain evaluation per size.  ``_COMMANDS`` holds, per command, the
runner, the CSV columns and the error column, so every tolerance key is
checked against the header before the sweep runs.  The result is one float
table: a CSV (``%.17g`` cells, LF line endings) and a
``<output>.summary.json`` with pass/fail per declared tolerance.  The CSV is
streamed to disk in chunks of rows.  Each chunk is the row-major join of
cell strings that already end in their separator.  A column that repeats
its values (grid coordinates always do; found by sorting its bits) formats
each distinct value once and gathers the strings; a run of adjacent such
columns with few enough value combinations is gathered as one fused cell.
Any other column is formatted per chunk.  Every cell string comes from one
formatter, _format_cells: exactly as ``%.17g``, by integer arithmetic on
arrays, for 2**-32 <= |v| < 2**51 (17 digits from the significand times a
power of five, shifted and rounded half to even with an exact remainder);
by ``%`` for the other values and for calls of fewer than
_FORMAT_MIN_ROWS values.  op-apply builds its table column-major, so the
writer reads each column contiguously.  The summary also records the wall
seconds of the load, run and write phases and the fracvar, numpy and Python
versions.
Exit codes: 0 all tolerances pass, 2 a tolerance failed,
1 configuration, runtime or output error.  Output goes to --output-dir,
else $FRACVAR_OUTPUT_DIR, else the config file's directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .config import ExperimentConfig, Problem, load_config
from .dirichlet import DirichletSpec, bvp_residual, energy, minimize_energy
from .errors import ConfigError, FracvarError
from .ibp import check_K_duality, check_ibp
from .model import Field, GridND, interior_max_abs
from .noether import _chain
from .operators import apply_op_nd, make_plan
from .variational import (ProblemSpec, el_residual, el_residual_mixed,
                          wave_residual)


def _expr_field(grid: GridND, fn: Callable) -> Field:
    vals = np.asarray(fn(grid.coords()), dtype=float)
    return Field(grid, np.broadcast_to(vals, grid.shape)[np.newaxis])


def _random_smooth_field(grid: GridND, rng: np.random.Generator) -> Field:
    coords = grid.coords()
    vals = np.zeros(grid.shape)
    for axis, c in enumerate(coords):
        a, b = grid.axes[axis].a, grid.axes[axis].b
        s = (c - a) / (b - a)
        amp = rng.standard_normal(3)
        vals = vals + (amp[0] * np.sin(np.pi * s) + amp[1] * s * (1.0 - s)
                       + amp[2] * s * s)
    return Field(grid, vals[np.newaxis])


# ---------------------------------------------------------------------------
# Command implementations: each takes the resolved problem and one size's grid,
# builds only what depends on the grid (plans, fields, specs) and returns its
# rows.  op-apply returns a float array, one row per node; the others one row,
# [[n, ...]].  run_experiment stacks them into one float table under the
# command's header.


def _apply_configured_op(p: Problem, grid: GridND, fn: Callable) -> Field:
    """The configured operator applied to the expression field fn."""
    plan = make_plan(p.op, p.orders[p.axis], p.psets[p.axis],
                     p.kernels[p.axis], grid.axes[p.axis], axis=p.axis)
    return apply_op_nd(plan, _expr_field(grid, fn))


def _run_op_apply(p: Problem, grid: GridND) -> np.ndarray:
    value = _apply_configured_op(p, grid, p.field).values[0]
    coords = grid.coords()
    # Column-major: each column is contiguous for the CSV writer.  Every
    # column holds the nodes in C order, one row per node, last axis fastest.
    table = np.empty((grid.ndim + 1 + (p.oracle is not None), value.size))
    columns = [col.reshape(grid.shape) for col in table]
    for col, c in zip(columns, coords + [value]):
        col[...] = c
    if p.oracle is not None:
        oracle = np.asarray(p.oracle(coords), dtype=float)
        np.abs(np.subtract(value, oracle, out=columns[-1]), out=columns[-1])
    return table.T


def _run_ibp_check(p: Problem, grid: GridND) -> list[list]:
    check = check_K_duality if p.identity == "duality" else check_ibp
    rep = check(_expr_field(grid, p.f), _expr_field(grid, p.eta),
                p.psets[0], p.orders[0], p.kernels[0], p.axis)
    return [[grid.axes[0].n, rep.lhs, rep.rhs, rep.boundary_term,
             rep.residual, rep.residual_rel]]


def _run_el_residual(p: Problem, grid: GridND) -> list[list]:
    spec = ProblemSpec(grid, p.lagrangian, p.psets1, p.psets2, p.alphas,
                       p.betas, p.kernels_alpha, p.kernels_beta)
    u = _expr_field(grid, p.field)
    res = (el_residual_mixed if p.mixed else el_residual)(spec, u)
    return [[grid.axes[0].n, interior_max_abs(res)]]


def _run_dirichlet_solve(p: Problem, grid: GridND) -> list[list]:
    psi = _expr_field(grid, p.boundary)
    spec = DirichletSpec(grid, p.psets, p.alphas, p.kernels, psi, tol=p.tol)
    result = minimize_energy(spec)
    return [[grid.axes[0].n, result.iterations, result.gradient_norm,
             interior_max_abs(bvp_residual(spec, result.field)),
             energy(spec, result.field)]]


def _run_noether_check(p: Problem, grid: GridND) -> list[list]:
    spec = ProblemSpec(grid, p.lagrangian, p.psets1, p.psets2, p.alphas,
                       p.betas, p.kernels_alpha, p.kernels_beta)
    u = (_expr_field(grid, p.u0) if p.u0 is not None
         else _random_smooth_field(grid, np.random.default_rng(p.seed)))
    defect, noe, inv = _chain(spec, u, p.generator)
    return [[grid.axes[0].n, defect, interior_max_abs(noe),
             interior_max_abs(inv)]]


def _run_wave_residual(p: Problem, grid: GridND) -> list[list]:
    time_op = (p.psets[0], p.alphas[0], p.kernels[0])
    space_ops = (None if p.space_betas is None
                 else list(zip(p.psets[1:], p.space_betas, p.kernels[1:])))
    res = wave_residual(_expr_field(grid, p.field), p.rho, p.stiffness,
                        time_op, space_ops)
    return [[grid.axes[0].n, interior_max_abs(res)]]


def _run_convergence_sweep(p: Problem, grid: GridND) -> list[list]:
    out = _apply_configured_op(p, grid, p.f)
    oracle = _expr_field(grid, p.oracle)
    err = interior_max_abs(Field(grid, out.values - oracle.values))
    return [[grid.axes[0].n, err]]


def _fixed(*names: str) -> Callable[[Problem], list[str]]:
    return lambda p: list(names)


def _op_apply_columns(p: Problem) -> list[str]:
    return ([f"t{i + 1}" for i in range(p.ndim)] + ["value"]
            + (["abs_error"] if p.oracle is not None else []))


# command -> (runner, its CSV columns for a resolved problem, the error column
# whose per-size values gain an order_est column over the sweep, or None).
_COMMANDS = {
    "op-apply": (_run_op_apply, _op_apply_columns, None),
    "ibp-check": (_run_ibp_check,
                  _fixed("n", "lhs", "rhs", "boundary_term", "residual_abs",
                         "residual_rel"),
                  "residual_abs"),
    "el-residual": (_run_el_residual, _fixed("n", "max_interior_residual"),
                    "max_interior_residual"),
    "dirichlet-solve": (_run_dirichlet_solve,
                        _fixed("n", "iterations", "gradient_norm",
                               "bvp_residual", "energy"),
                        None),
    "noether-check": (_run_noether_check,
                      _fixed("n", "chain_defect", "noether_interior",
                             "invariance_interior"),
                      None),
    "wave-residual": (_run_wave_residual,
                      _fixed("n", "max_interior_residual"),
                      "max_interior_residual"),
    "convergence-sweep": (_run_convergence_sweep,
                          _fixed("n", "max_interior_error"),
                          "max_interior_error"),
}


def _header(cfg: ExperimentConfig) -> list[str]:
    """The CSV header of cfg: the command's columns, then order_est when
    the command has an error column."""
    _, columns, error_column = _COMMANDS[cfg.command]
    header = columns(cfg.problem)
    return header + ["order_est"] if error_column else header


def run_experiment(cfg: ExperimentConfig, jobs: int = 1
                   ) -> tuple[list[str], np.ndarray]:
    """Run the command over its sweep (or single default size) and collect
    the rows in sweep order into one float table; sweep entries are
    independent and run in parallel up to ``jobs``."""
    runner, columns, error_column = _COMMANDS[cfg.command]
    problem = cfg.problem
    sizes = cfg.sweep if cfg.sweep is not None else (problem.size,)
    grids = (problem.grid(n) for n in sizes)
    if jobs > 1 and len(sizes) > 1:
        # Imported here: it brings in logging, which a serial run never uses.
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda g: runner(problem, g), grids))
    else:
        results = [runner(problem, grid) for grid in grids]
    # One size: the runner's table as it is (op-apply's is column-major and
    # can be megabytes); a sweep stacks the sizes' rows.
    table = (np.asarray(results[0], dtype=float) if len(results) == 1
             else np.concatenate(results, dtype=float))
    if error_column is not None:
        # These commands give one row per size.
        errs = table[:, columns(problem).index(error_column)].tolist()
        order = [math.nan] * len(sizes)
        for i in range(1, len(sizes)):
            if errs[i] != 0.0 and errs[i - 1] != 0.0:
                # The log of the ratio, or a difference of logs when the
                # ratio under- or overflows.
                ratio = errs[i - 1] / errs[i]
                log_ratio = (math.log(ratio) if 0.0 < ratio < math.inf
                             else math.log(errs[i - 1]) - math.log(errs[i]))
                order[i] = log_ratio / math.log(sizes[i] / sizes[i - 1])
        table = np.column_stack([table, order])
    return _header(cfg), table


# ---------------------------------------------------------------------------
# Tolerance evaluation and output


def _tolerance_columns(tolerances: dict, header: list[str],
                       error_column: Optional[str]
                       ) -> dict[str, tuple[str, int]]:
    """Each tolerance key -> (form, index of the column it reads), the form
    one of "range", "decrease", "max" and "last"; raises ConfigError for a
    key that names no column of header."""
    columns = {}
    for key in tolerances:
        if key == "order_est_range" and "order_est" in header:
            columns[key] = ("range", header.index("order_est"))
        elif key == "decrease_factor_min":
            if error_column is None:
                raise ConfigError(
                    "decrease_factor_min needs an error column", field=key)
            columns[key] = ("decrease", header.index(error_column))
        elif key.endswith("_max") and key[:-4] in header:
            columns[key] = ("max", header.index(key[:-4]))
        elif key in header:
            columns[key] = ("last", header.index(key))
        else:
            raise ConfigError(f"tolerance {key!r} names no CSV column",
                              field=key)
    return columns


def evaluate_tolerances(tolerances: dict, header: list[str],
                        table: np.ndarray,
                        error_column: Optional[str] = None) -> dict:
    """Each entry: name -> {bound, value, pass}; see config module docstring
    for the key forms.  ``decrease_factor_min`` reads error_column, which
    must then be given."""
    report = {}
    for key, (form, col) in _tolerance_columns(tolerances, header,
                                               error_column).items():
        bound = tolerances[key]
        if form == "range":
            value = table[-1, col].item()
            ok = (not math.isnan(value)) and bound[0] <= value <= bound[1]
            report[key] = {"bound": bound, "value": value, "pass": bool(ok)}
            continue
        if form == "decrease":
            errs = table[:, col]
            with np.errstate(divide="ignore", invalid="ignore"):
                factors = np.where(errs[1:] == 0.0, math.inf,
                                   errs[:-1] / errs[1:])
            # np.min propagates NaN, so a NaN error fails the bound.
            worst = factors.min(initial=math.inf).item()
            report[key] = {"bound": bound, "value": worst,
                           "pass": bool(worst >= bound)}
            continue
        value = (np.max(table[:, col]) if form == "max"
                 else table[-1, col]).item()
        report[key] = {"bound": bound, "value": value,
                       "pass": bool(value <= bound)}
    return report


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks via a renamed temporary file, with mode
    0o666 & ~umask; on any error the temporary file is removed and path is
    left as it was."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracvar-")
    try:
        # The file object owns the descriptor from here, so it is closed
        # whatever raises below.
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Rows per CSV chunk: each chunk is built and joined on its own, which bounds
# the writer's memory.
_CSV_CHUNK_ROWS = 4096

# Inline cells of a chunk column with fewer rows than this are formatted by
# one % call: below about 400 rows the fixed cost of _format_cells's array
# calls (about 0.1 ms) exceeds what it saves.
_FORMAT_MIN_ROWS = 512

# _format_cells formats 2**-32 <= |v| < 2**51 by arrays.  There the decimal
# exponent X (10**X <= |v| < 10**(X + 1)) is in -10..15, and the shift s of
# _round_shifted is in 1..58 (checked at every power of two and of ten).
_FAST_RANGE = (2.0**-32, 2.0**51)
_EXPONENTS = range(-10, 16)
# Tables of _format_cells.  A uint64 word holds up to eight bytes of a cell,
# the first one lowest, as little-endian memory stores them; a zero byte is
# dropped after formatting, so it may sit anywhere.
_U64 = np.uint64


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


def _ceil_pow10(x: int) -> float:
    """The least double >= 10**x."""
    d = float(f"1e{x}")
    num, den = d.as_integer_ratio()
    below = num * 10**max(-x, 0) < den * 10**max(x, 0)
    return math.nextafter(d, math.inf) if below else d


# |v| has decimal exponent X when _POW10[X + 10] <= |v| < _POW10[X + 11].
_POW10 = np.array([_ceil_pow10(x) for x in range(-10, 17)])
# 5**k and 10.0**k for k = 16 - X, 1..26.
_POW5 = np.array([5**k for k in range(27)], dtype=np.uint64)
_POW10F = np.array([float(10**k) for k in range(27)])
# _LOW_BYTES[c] selects the lowest c bytes of a word, c = 0..8.
_LOW_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=np.uint64)
# Per X in _EXPONENTS: the digits before the point (X + 1 for X >= 0, one
# before an exponent, none after "0."), the "0" of "0.000ddd" (byte 1 of
# word 0), the zeros after its point (bytes 1..3 of word 3) and the "e-XX"
# of the exponent notation (word 6).
_POINT = np.array([x + 1 if x >= 0 else int(x < -4) for x in _EXPONENTS])
_LEAD = np.array([_word("\0" + "0" * (-4 <= x < 0)) for x in _EXPONENTS],
                 dtype=np.uint64)
_AFTER_POINT = np.array([_word("\0" + "0" * (-x - 1) * (-4 <= x < 0))
                         for x in _EXPONENTS], dtype=np.uint64)
_EXPONENT = np.array([_word("e-%02d" % -x if x < -4 else "")
                      for x in _EXPONENTS], dtype=np.uint64)


@functools.cache
def _digits4() -> np.ndarray:
    """The digits of 0..9999 as four bytes of values 0..9, the most
    significant digit lowest; built on first use, which keeps it out of
    the import."""
    i = np.arange(10000, dtype=np.uint64)
    return (i // _U64(1000) | i // _U64(100) % _U64(10) << _U64(8)
            | i // _U64(10) % _U64(10) << _U64(16) | i % _U64(10) << _U64(24))


def _round_shifted(mag: np.ndarray, m: np.ndarray, k: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """mag * 10**k = m * 5**k / 2**s rounded half to even, for m < 2**53,
    k in 0..26, s in 1..58 and a result below 2**57.  The float product
    is within 24 of the exact value, so the exact remainder
    m * 5**k - q * 2**s of its integer part q fits in 64 bits and is
    computed modulo 2**64."""
    q = (mag * _POW10F[k]).astype(np.uint64)
    d = m * _POW5[k] - (q << s)
    # floor(d / 2**s) corrects q; the low s bits of d are what is left.
    q += (d.view(np.int64) >> s.view(np.int64)).view(np.uint64)
    rest = d & ((_U64(1) << s) - _U64(1))
    half = _U64(1) << (s - _U64(1))
    return q + ((rest > half) | ((rest == half) & (q & _U64(1) == 1)))


def _format_cells(values: np.ndarray, sep: str) -> list[str]:
    """["%.17g" % v + sep for v in values] for a float64 column, exactly.

    Fewer than _FORMAT_MIN_ROWS values take one % call.  Otherwise every
    v with 2**-32 <= |v| < 2**51 is formatted by integer arithmetic on
    arrays.  Its decimal exponent X comes from log10, corrected against
    the least doubles >= 10**X.  With |v| = m * 2**(e - 53), m < 2**53, its
    17 significant digits are F = |v| * 10**(16 - X) = m * 5**(16 - X) /
    2**s, s = 53 - e - (16 - X), rounded half to even (_round_shifted).
    The cell follows the %g rules: fixed notation for -4 <= X <= 16, else
    d.ddde-XX, trailing zeros and a bare point removed.  Each cell is laid
    out in seven words with zero bytes in unused places, which the join
    drops.  Every other value (0, -0, nan, inf, subnormal, outside that
    range) is formatted by %."""
    n = len(values)
    if n < _FORMAT_MIN_ROWS:
        return (("%.17g" + sep + "\0") * n % tuple(values.tolist())
                ).split("\0")[:-1]
    mag = np.abs(values)
    # False for nan too.
    fast = (mag >= _FAST_RANGE[0]) & (mag < _FAST_RANGE[1])
    mag = np.where(fast, mag, 1.0)
    # The decimal exponent: numpy's log10 may be an ulp off either way, so
    # floor(log10) is within one of it; _POW10 decides.
    x = np.clip(np.floor(np.log10(mag)).astype(np.intp), -10, 15)
    x += mag >= _POW10[x + 11]
    x -= mag < _POW10[x + 10]
    fraction, e = np.frexp(mag)
    k = 16 - x
    q = _round_shifted(mag, (fraction * 2.0**53).astype(np.uint64), k,
                       (53 - e - k).astype(np.uint64))
    # No double in the range rounds up to 10**17 (checked next to every
    # power of ten); were one to, it would fall back to % too.
    fast &= q < _U64(10**17)
    # Rows left to % are laid out as "1" meanwhile, so every row gives one
    # cell.
    q = np.where(fast, q, _U64(10**16))
    x += 10
    # The first digit, and words of digits 1..8 and 9..16.
    first = q // _U64(10**16)
    rest = q - first * _U64(10**16)
    eight = np.empty((2, n), dtype=np.uint64)
    eight[0] = rest // _U64(10**8)
    eight[1] = rest - eight[0] * _U64(10**8)
    four = eight // _U64(10000)
    digits4 = _digits4()
    words = (digits4[four.astype(np.intp)]
             | digits4[(eight - four * _U64(10000)).astype(np.intp)]
             << _U64(32))
    # The highest nonzero byte of a word: each byte is below 16.
    used = (np.frexp(words.astype(np.float64))[1] + 7) >> 3
    digits = np.where(eight[1] != 0, 9 + used[1], 1 + used[0])
    point = _POINT[x]
    # Shown digits: the significant ones, and the integer part in full.
    shown = np.maximum(digits, point)
    offsets = np.array([[1], [9]])
    words += (_U64(0x3030303030303030)
              & _LOW_BYTES[np.clip(shown - offsets, 0, 8)])
    first += _U64(ord("0"))
    # Words: sign, "0", first digit | digits before the point | point, zeros
    # after it, first digit | digits after the point | exponent, sep, "\1".
    out = np.empty((7, n), dtype="<u8")
    out[0] = (np.signbit(values) * _U64(ord("-")) | _LEAD[x]
              | (first * (point > 0)) << _U64(16))
    np.bitwise_and(words, _LOW_BYTES[np.clip(point - offsets, 0, 8)],
                   out=out[1:3])
    out[3] = ((shown > point) * _U64(ord(".")) | _AFTER_POINT[x]
              | (first * (point == 0)) << _U64(32))
    np.bitwise_xor(words, out[1:3], out=out[4:6])
    out[6] = _EXPONENT[x] | _U64(_word(sep + "\1") << 32)
    cells = out.T.tobytes().translate(None, b"\0").decode("ascii").split("\1")
    slow = np.flatnonzero(~fast)
    for i, v in zip(slow.tolist(), values[slow].tolist()):
        cells[i] = "%.17g%s" % (v, sep)
    return cells[:-1]


def _distinct_cells(column: np.ndarray
                    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(strings, inverse) with strings[inverse] the ``%.17g`` cells of a
    float64 column, when it has at most half as many distinct bit patterns
    (0.0 and -0.0 stay apart) as rows; else None, for inline formatting.
    The distinct patterns come from a sort of the bits and a comparison of
    neighbours, the inverse from a binary search in them; the strings are
    _format_cells of the distinct values, with no separator."""
    bits = column.view(np.uint64)
    ordered = np.sort(bits)
    # A sorted pattern that differs from its predecessor is a new one.
    new = ordered[1:] != ordered[:-1]
    count = int(np.count_nonzero(new)) + (len(ordered) > 0)
    if 2 * count > len(column):
        return None
    distinct = np.concatenate([ordered[:1], ordered[1:][new]])
    inverse = np.searchsorted(distinct, bits)
    strings = np.array(_format_cells(distinct.view(np.float64), ""),
                       dtype=object)
    # The narrowest index type keeps the writer's resident memory low.
    return strings, inverse.astype(np.min_scalar_type(count))


def _row_cells(table: np.ndarray
               ) -> list[tuple[int, int, Optional[tuple[np.ndarray,
                                                        np.ndarray]]]]:
    """The cells of a table row, left to right, as (start, stop, cells)
    over the columns start:stop.  cells is None for one inline column.
    Otherwise it is (strings, index) for a run of adjacent repeating
    columns: strings[index] are the run's cells, each ending in its
    separator, "," or (last column) "\\n".  A run grows while the product
    of its columns' distinct counts stays at most half the rows, the rule
    of _distinct_cells; its strings are the outer concatenation of its
    columns' strings and its index their indices in mixed radix."""
    rows, cols = table.shape
    cells = []
    for j in range(cols):
        d = _distinct_cells(table[:, j])
        if d is None:
            cells.append((j, j + 1, None))
            continue
        strings, inverse = d[0] + ("," if j < cols - 1 else "\n"), d[1]
        if cells and cells[-1][2] is not None:
            start, _, (run_strings, run_index) = cells[-1]
            if 2 * len(run_strings) * len(strings) <= rows:
                fused = np.add.outer(run_strings, strings).ravel()
                index = (run_index.astype(np.intp) * len(strings)
                         + inverse).astype(np.min_scalar_type(len(fused)))
                cells[-1] = (start, j + 1, (fused, index))
                continue
        cells.append((j, j + 1, (strings, inverse)))
    return cells


def _csv_chunks(header: list[str], table: np.ndarray) -> Iterator[str]:
    """The header line, then the body in chunks of _CSV_CHUNK_ROWS lines.
    A chunk is the row-major join of the cells of _row_cells: a repeating
    run is gathered from its strings, an inline column is formatted by
    _format_cells (exact array arithmetic for 2**-32 <= |v| < 2**51 in
    chunks of at least _FORMAT_MIN_ROWS rows, else ``%``)."""
    yield ",".join(header) + "\n"
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    cells = _row_cells(table)
    for start in range(0, rows, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, rows)
        chunk = np.empty((stop - start, len(cells)), dtype=object)
        for k, (j, _, d) in enumerate(cells):
            if d is None:
                chunk[:, k] = _format_cells(table[start:stop, j],
                                            "," if j < cols - 1 else "\n")
            else:
                strings, index = d
                chunk[:, k] = strings[index[start:stop]]
        yield "".join(chunk.ravel().tolist())


def write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """Header line, then one line per table row with every cell ``%.17g``
    (integers below 2**53 print without a decimal point); LF line endings.
    The body is streamed in chunks of rows, each the join of cell strings; a
    column that repeats its values formats each distinct value once, and
    adjacent repeating columns may share one fused cell (_row_cells).  Other
    columns are formatted per chunk by _format_cells: by integer arithmetic
    on arrays where 2**-32 <= |v| < 2**51 and the chunk has at least
    _FORMAT_MIN_ROWS rows, by ``%`` for every other value and chunk; both
    give the same bytes.  Any
    table layout is accepted; a column-major one is read contiguously."""
    _atomic_write(path, _csv_chunks(header, table))


def _finite_json(obj):
    """obj with every NaN or infinite float written as the string "NaN",
    "Infinity" or "-Infinity": strict JSON (RFC 8259) has no such numbers."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0
                                              else "-Infinity")
    if isinstance(obj, dict):
        return {key: _finite_json(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(val) for val in obj]
    return obj


def resolve_output_dir(config_path: str, override: Optional[str]) -> str:
    if override:
        return override
    env = os.environ.get("FRACVAR_OUTPUT_DIR")
    if env:
        return env
    return os.path.dirname(os.path.abspath(config_path))


def run(config_path: str, output_dir: Optional[str] = None,
        jobs: int = 1) -> int:
    """Execute one config; returns the process exit code."""
    started = time.perf_counter()
    try:
        cfg = load_config(config_path)
        error_column = _COMMANDS[cfg.command][2]
        # Every tolerance key must name a column before the sweep runs.
        _tolerance_columns(cfg.tolerances, _header(cfg), error_column)
        loaded = time.perf_counter()
        header, table = run_experiment(cfg, jobs=jobs)
        report = evaluate_tolerances(cfg.tolerances, header, table,
                                     error_column)
    except FracvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ran = time.perf_counter()
    # One normalized path serves the directory, the CSV, the summary and
    # the printed line, so "sub/../x.csv" needs no directory "sub".
    csv_path = os.path.normpath(os.path.join(
        resolve_output_dir(config_path, output_dir), cfg.output_path))
    passed = all(entry["pass"] for entry in report.values())
    try:
        os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
        write_csv(csv_path, header, table)
        summary = {
            "command": cfg.command,
            "config": os.path.abspath(config_path),
            "csv": os.path.abspath(csv_path),
            "rows": len(table),
            "tolerances": report,
            "pass": passed,
            # Wall seconds per phase; "write" is the CSV, the summary
            # itself is written after it.
            "seconds": {"load": loaded - started, "run": ran - loaded,
                        "write": time.perf_counter() - ran},
            "versions": {"fracvar": __version__, "numpy": np.__version__,
                         "python": sys.version.split()[0]},
        }
        _atomic_write(os.path.splitext(csv_path)[0] + ".summary.json",
                      [json.dumps(_finite_json(summary), indent=2,
                                  sort_keys=True, allow_nan=False) + "\n"])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, entry in report.items():
        state = "pass" if entry["pass"] else "FAIL"
        print(f"{name}: value={entry['value']:.6g} "
              f"bound={entry['bound']} [{state}]")
    print(f"{cfg.command}: {len(table)} rows -> {csv_path} "
          f"[{'pass' if passed else 'FAIL'}]")
    return 0 if passed else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Run a configured fractional-variational experiment.")
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--output-dir", default=None,
                        help="directory for CSV/summary output "
                             "(default: $FRACVAR_OUTPUT_DIR or the config's "
                             "directory)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel sweep entries (default 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    return run(args.config, output_dir=args.output_dir, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
