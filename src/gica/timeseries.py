"""Loading, validation, preprocessing and text output of paired time series.

Input data are two simultaneously sampled scalar series (a driver ``x`` and a
target ``y``). Preprocessing follows common practice for short physiological
recordings: mean removal plus an optional zero-phase high-pass detrend with a
very low cutoff so that slow drifts do not leak into the analysis bands.
:func:`highpass_detrend` is ``scipy.signal.filtfilt`` of a first-order
Butterworth in numpy: closed-form coefficients, ``filtfilt``'s odd padding and
``lfilter_zi`` start, and each pass run by :func:`gica.varmodel.simulate_var`,
the one recursion, so :func:`preprocess` filters both channels in one stack.

Text is read and written a column at a time. :func:`load_pair` parses each
selected column with one list comprehension and checks it with one
``np.isfinite``; only a file that fails that (a non-numeric, non-finite or
missing cell) is walked row by row, so that the error names its row and
column. Tables are written from row templates: :func:`row_templates` builds,
for chunks of at most ``CHUNK_ROWS`` rows, one string holding each row's
label and a ``%.15g`` per value cell, and :func:`fill_templates` formats a
chunk's values with one ``%``, in C, with no string object per value.
:func:`write_pair` and the CLI's profile and plot-data writers share them
(the CLI builds a grid's templates once per process, its labels printed by
:func:`format_column`), and every output file is created anew, with LF line
ends, by :func:`write_text`. :func:`json_number` writes a JSON report's
numbers.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .varmodel import simulate_var

# rows per ``%``: one template for a whole 2049-row file formats as fast, but then
# peak RSS grew with the number of files written
CHUNK_ROWS = 128


@dataclass(frozen=True)
class TimeSeriesPair:
    """Two synchronously sampled series with a common sampling rate.

    Parameters
    ----------
    x : ndarray
        Driver series, shape ``(n,)``.
    y : ndarray
        Target series, shape ``(n,)``.
    fs : float
        Sampling frequency in Hz.
    """

    x: np.ndarray
    y: np.ndarray
    fs: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if x.size != y.size:
            raise ValueError(
                f"series lengths differ: x has {x.size}, y has {y.size}"
            )
        if x.size < 2:
            raise ValueError("series must contain at least 2 samples")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("series contain non-finite values")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "fs", float(self.fs))

    @property
    def n(self) -> int:
        return int(self.x.size)


def _parse_cell(token: str, line_no: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"non-numeric value {token!r} at row {line_no}, column {col}"
        ) from None
    if not np.isfinite(value):
        raise ValueError(
            f"non-finite value {token!r} at row {line_no}, column {col}"
        )
    return value


def load_pair(
    path: str | Path,
    fs: float,
    columns: tuple[int, int] = (0, 1),
    delimiter: str = ",",
) -> TimeSeriesPair:
    """Read a delimited text file into a :class:`TimeSeriesPair`.

    The two selected columns must be numeric and of equal length. A single
    leading header line is detected automatically (a first row whose selected
    cells do not parse as numbers) and skipped. The file is read as UTF-8;
    a leading byte-order mark is dropped. Blank rows are skipped.

    Parameters
    ----------
    path : str or Path
        File to read.
    fs : float
        Sampling frequency in Hz to attach to the data.
    columns : tuple of int
        Zero-based indices of the driver and target columns, distinct and
        non-negative.
    delimiter : str
        Field separator, one character.
    """
    cx, cy = columns
    if min(cx, cy) < 0 or cx == cy:  # -1 would count from the end, equal ones fit nothing
        raise ValueError(f"columns must be distinct and >= 0, got x {cx} and y {cy}")
    if len(delimiter) != 1:  # csv.reader raises a TypeError for any other length
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    rows = [r for r in rows if "".join(r).strip()]
    if not rows:
        raise ValueError(f"no data rows in {path}")
    start = 0
    first = rows[0]
    if len(first) > max(cx, cy):
        try:
            float(first[cx])
            float(first[cy])
        except ValueError:
            start = 1  # header line
    body = rows[start:]
    try:
        x = np.array([float(r[cx]) for r in body])
        y = np.array([float(r[cy]) for r in body])
        clean = np.isfinite(x).all() and np.isfinite(y).all()
    except (ValueError, IndexError):
        clean = False
    if not clean:  # a bad cell: walk the rows in file order to name the first one
        for i, row in enumerate(body, start=start + 1):
            if len(row) <= max(cx, cy):
                raise ValueError(
                    f"row {i} has {len(row)} columns, need at least {max(cx, cy) + 1}"
                )
            for col in (cx, cy):
                _parse_cell(row[col].strip(), i, col)
    return TimeSeriesPair(x, y, fs)


def format_column(values: np.ndarray) -> list[str]:
    """Each value of a 1-D column as ``%.15g`` text (``inf``, ``-inf``, ``-0`` included)."""
    return ["%.15g" % v for v in np.asarray(values, dtype=float).tolist()]


def row_templates(labels: Sequence[str] | int, width: int, delimiter: str) -> tuple[str, ...]:
    """The ``%`` templates of a table's rows, one per chunk of at most ``CHUNK_ROWS`` rows.

    A row is its label, ``%`` escaped as ``%%``, then ``width`` ``%.15g`` cells, the
    delimiter between cells, and a newline. ``labels`` is each row's pre-formatted
    first cell, or, for a table without a label column, its row count; such a table
    repeats one row, so all its full chunks share one template string.
    """
    cells = delimiter.join(["%.15g"] * width) + "\n"
    if isinstance(labels, int):
        full, rest = divmod(labels, CHUNK_ROWS)
        return (cells * CHUNK_ROWS,) * full + (cells * rest,) * (rest > 0)
    rows = [label.replace("%", "%%") + delimiter + cells for label in labels]
    return tuple("".join(rows[i : i + CHUNK_ROWS]) for i in range(0, len(rows), CHUNK_ROWS))


def fill_templates(header: str, templates: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """``header``, then each chunk template of :func:`row_templates` ``%`` its rows' values.

    ``columns`` are the value columns, read row by row; a template whose cells do not
    match its chunk's values raises ``TypeError``, and a chunk count that does not
    match raises ``ValueError``.
    """
    values = np.column_stack(columns).ravel().tolist()
    step = CHUNK_ROWS * len(columns)
    chunks = [tuple(values[i : i + step]) for i in range(0, len(values), step)]
    return "".join([header, *(t % chunk for t, chunk in zip(templates, chunks, strict=True))])


def json_number(value: float) -> float | str:
    """``value`` as a JSON number; an infinity, which JSON lacks, as the string ``"inf"``."""
    return "inf" if np.isinf(value) else float(value)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file: UTF-8, line ends as given.

    An existing file is unlinked first, not truncated: truncating a file that
    was just written waits for its pending writeback, while a new inode does
    not. Outputs are regenerable, so nothing is lost if the write fails, and a
    symlink at ``path`` is replaced rather than written through.
    """
    Path(path).unlink(missing_ok=True)
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_pair(pair: TimeSeriesPair, path: str | Path) -> None:
    """Write the pair as two-column CSV with a ``x,y`` header.

    Values are printed with 15 significant digits, enough for a lossless
    round trip at the tolerances used downstream.
    """
    write_text(path, fill_templates("x,y\n", row_templates(pair.n, 2, ","), [pair.x, pair.y]))


def remove_mean(series: np.ndarray) -> np.ndarray:
    """Subtract the sample mean."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    return series - series.mean()


def highpass_detrend(series: np.ndarray, fs: float, cutoff: float = 0.0156) -> np.ndarray:
    """Zero-phase first-order Butterworth high-pass for slow-trend removal, ``(..., N)``.

    The filter of ``scipy.signal.butter(1, cutoff, "highpass", fs=fs)`` in closed form:
    with ``k = tan(pi cutoff / fs)``, ``b = [1, -1] / (1 + k)`` and ``a = [1, a1]``,
    ``a1 = (k - 1) / (k + 1)``. It runs as ``scipy.signal.filtfilt`` runs it: the
    series is extended at both ends by an odd reflection of ``padlen = int(min(3 tau,
    N - 2))`` samples, ``tau = fs / (2 pi cutoff)`` the time constant in samples, then
    filtered forward and the result backward, each pass started from
    ``lfilter_zi``'s steady state ``zi = (b1 - a1 b0) / (1 + a1)`` scaled by the pass's
    first sample, and the padding is cut off again (none at ``padlen`` 0).

    Each pass is the recursion ``y_t = -a1 y_{t-1} + b0 v_t + b1 v_{t-1}`` with
    ``zi v_0`` added to its first drive sample, run by :func:`simulate_var`, so rows of
    a stack are filtered in one call each way, each bit-identical to the row alone.

    Parameters
    ----------
    series : ndarray
        Input samples, shape ``(..., N)``; the last axis is time.
    fs : float
        Sampling frequency in Hz.
    cutoff : float
        High-pass cutoff in Hz; must lie in ``(0, fs/2)``.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 0 or series.shape[-1] < 20:
        raise ValueError("need at least 20 samples to detrend")
    if not 0 < cutoff < fs / 2:
        raise ValueError(
            f"cutoff must lie in (0, {fs / 2}), got {cutoff}"
        )
    k = np.tan(np.pi * cutoff / fs)
    b0, b1, a1 = 1 / (1 + k), -1 / (1 + k), (k - 1) / (k + 1)
    zi = (b1 - a1 * b0) / (1 + a1)
    tau = fs / (2 * np.pi * cutoff)  # time constant in samples
    pad = int(min(3 * tau, series.shape[-1] - 2))
    head = 2 * series[..., :1] - series[..., pad:0:-1]  # odd reflections, empty at pad 0
    tail = 2 * series[..., -1:] - series[..., -2 : -pad - 2 : -1]
    v = np.concatenate([head, series, tail], axis=-1)
    lags = np.array([[[-a1]]])
    for _ in range(2):  # each pass runs forward and reverses, so the second undoes the first's
        drive = b0 * v
        drive[..., 1:] += b1 * v[..., :-1]
        drive[..., 0] += zi * v[..., 0]
        v = simulate_var(lags, drive[..., None])[..., 0][..., ::-1]
    return v[..., pad : v.shape[-1] - pad]


def preprocess(pair: TimeSeriesPair, detrend_cutoff: float | None) -> TimeSeriesPair:
    """High-pass both channels at ``detrend_cutoff`` Hz, in one stack, then demean them.

    ``detrend_cutoff=None`` skips the high-pass stage and only removes the
    mean.
    """
    x, y = pair.x, pair.y
    if detrend_cutoff is not None:
        x, y = highpass_detrend(np.stack([x, y]), pair.fs, detrend_cutoff)
    return TimeSeriesPair(remove_mean(x), remove_mean(y), pair.fs)
