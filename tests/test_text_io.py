"""Column-wise text I/O: byte identity with the per-row writers, also at the
chunk edges of the templated writers, and the loader's column fast path against
its row-by-row fallback.

The ``rows_*`` functions below are the per-row writers and the per-row
loader that the column-wise code replaced, kept here as the oracle.
"""
import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gica.cli
from gica.cli import _write_outputs, _write_plot_data, main
from gica.spectral import FrequencyGrid, SpectralProfile
from gica.timeseries import (
    CHUNK_ROWS,
    TimeSeriesPair,
    _parse_cell,
    fill_templates,
    format_column,
    load_pair,
    row_templates,
    write_pair,
)


def rows_write_profile(profile, path):
    lines = ["frequency_hz,value"]
    for f, v in zip(profile.grid.freqs_hz, profile.values):
        lines.append(f"{f:.15g},{v:.15g}")
    path.write_text("\n".join(lines) + "\n")


def rows_write_plot_data(profiles, path):
    names = sorted(profiles)
    grid = profiles[names[0]].grid
    lines = ["\t".join(["frequency_hz"] + names)]
    for i, f in enumerate(grid.freqs_hz):
        row = [f"{f:.15g}"] + [f"{profiles[n].values[i]:.15g}" for n in names]
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n")


def rows_write_pair(pair, path):
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for a, b in zip(pair.x, pair.y):
            fh.write(f"{a:.15g},{b:.15g}\n")


def rows_load_pair(path, fs, columns=(0, 1), delimiter=","):
    cx, cy = columns
    xs, ys = [], []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    rows = [r for r in rows if any(tok.strip() for tok in r)]
    if not rows:
        raise ValueError(f"no data rows in {path}")
    start = 0
    first = rows[0]
    if len(first) > max(cx, cy):
        try:
            float(first[cx])
            float(first[cy])
        except ValueError:
            start = 1
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) <= max(cx, cy):
            raise ValueError(
                f"row {i} has {len(row)} columns, need at least {max(cx, cy) + 1}"
            )
        xs.append(_parse_cell(row[cx].strip(), i, cx))
        ys.append(_parse_cell(row[cy].strip(), i, cy))
    return TimeSeriesPair(np.array(xs), np.array(ys), fs)


def capture(monkeypatch, name):
    """Wrap ``gica.cli.<name>`` so that each call's return value is recorded."""
    calls = []
    inner = getattr(gica.cli, name)

    def wrapper(*args, **kwargs):
        calls.append(inner(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(gica.cli, name, wrapper)
    return calls


def assert_profiles_match_rows(profiles, outdir, oracle_dir):
    oracle_dir.mkdir()
    for name, profile in profiles.items():
        rows_write_profile(profile, oracle_dir / f"profile_{name}.csv")
        got = (outdir / f"profile_{name}.csv").read_bytes()
        assert got == (oracle_dir / f"profile_{name}.csv").read_bytes(), name


@pytest.fixture
def sim_csv(tmp_path, capsys):
    csv_path = tmp_path / "pair.csv"
    assert main(["simulate", "--system", "open_loop", "--b", "1", "--c", "0.5",
                 "--n", "400", "--seed", "3", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    return csv_path


@pytest.mark.parametrize("grid_points", [2, 129, 2049])
def test_analyze_files_match_per_row_writers(tmp_path, capsys, monkeypatch, sim_csv, grid_points):
    results = capture(monkeypatch, "analyze_pair")
    outdir = tmp_path / "out"
    rc = main(["analyze", "--input", str(sim_csv), "--fs", "4", "--order", "2",
               "--detrend-cutoff", "off", "--grid-points", str(grid_points),
               "--plot-data", "--out", str(outdir)])
    capsys.readouterr()
    assert rc == 0
    profiles = results[0].profiles
    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted(
        ["report.json", "model.json", "restricted_ar.json", "restricted_x.json",
         "plot_data.tsv", *(f"profile_{name}.csv" for name in profiles)]
    )
    assert_profiles_match_rows(profiles, outdir, tmp_path / "oracle")
    rows_write_plot_data(profiles, tmp_path / "oracle" / "plot_data.tsv")
    got = (outdir / "plot_data.tsv").read_bytes()
    assert got == (tmp_path / "oracle" / "plot_data.tsv").read_bytes()
    assert len(got.splitlines()) == grid_points + 1


def test_analyze_rerun_creates_every_file_anew(tmp_path, capsys, monkeypatch, sim_csv):
    # a rerun into the same directory writes no path that exists at write time (no
    # truncation of a file whose writeback may be pending), and the same bytes
    outdir = tmp_path / "out"
    args = ["analyze", "--input", str(sim_csv), "--fs", "1", "--detrend-cutoff", "off",
            "--grid-points", "129", "--plot-data", "--out", str(outdir)]
    assert main(args) == 0
    first = {path.name: path.read_bytes() for path in outdir.iterdir()}
    opened = []
    path_open = Path.open

    def spy(self, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((self.name, self.exists()))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    assert main(args) == 0
    capsys.readouterr()
    assert sorted(name for name, _ in opened) == sorted(first)
    assert [name for name, existed in opened if existed] == []
    assert {path.name: path.read_bytes() for path in outdir.iterdir()} == first


@pytest.mark.parametrize("grid_points", [2, 129])
def test_theoretical_isolated_target_matches_per_row_writer(tmp_path, capsys, monkeypatch, grid_points):
    results = capture(monkeypatch, "theoretical_profiles")
    outdir = tmp_path / "theory"
    rc = main(["theoretical", "--system", "open_loop", "--c", "0",
               "--grid-points", str(grid_points), "--out", str(outdir)])
    capsys.readouterr()
    assert rc == 0
    profiles, _ = results[0]
    assert np.isposinf(profiles["gi"].values).all()
    assert (profiles["gc"].values == 0).all()
    assert_profiles_match_rows(profiles, outdir, tmp_path / "oracle")
    lines = (outdir / "profile_gi.csv").read_text().splitlines()
    assert lines[1:] == [f"{f:.15g},inf" for f in np.linspace(0, 0.5, grid_points)]


def test_simulate_csv_matches_per_row_writer(tmp_path, capsys, monkeypatch):
    pairs = capture(monkeypatch, "simulate")
    out = tmp_path / "pair.csv"
    rc = main(["simulate", "--system", "closed_loop", "--b", "1", "--c", "0.5",
               "--d", "0.5", "--n", "300", "--seed", "9", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    rows_write_pair(pairs[0], tmp_path / "oracle.csv")
    assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_format_column_prints_as_numpy_scalars():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        np.finfo(float).max, np.finfo(float).tiny, 1 / 3, 1e16, 123456789012345678.0])
    random = np.random.default_rng(0).standard_cauchy(500)
    for values in (special, random):
        assert format_column(values) == [f"{v:.15g}" for v in values]
    assert format_column(special)[:5] == ["0", "-0", "inf", "-inf", "nan"]


# one row, a chunk less one row, one chunk, one chunk and a row, two chunks and a row
CHUNK_EDGES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
# finite and infinite extremes, signed zeros and values whose %.15g rounds
SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, np.finfo(float).max, np.finfo(float).tiny,
           1 / 3, 1e16]


def template_files(freqs, columns):
    """The profile, plot-data and pair texts of the template builders, and of the per-row
    oracles, for frequencies ``freqs`` and equally long value ``columns``."""
    labels = format_column(freqs)
    names = [f"m{i}" for i in range(len(columns))]
    ours = {
        "profile": fill_templates("frequency_hz,value\n", row_templates(labels, 1, ","),
                                  columns[:1]),
        "plot": fill_templates("\t".join(["frequency_hz", *names]) + "\n",
                               row_templates(labels, len(names), "\t"), columns),
        "pair": fill_templates("x,y\n", row_templates(len(freqs), 2, ","), columns[:2]),
    }
    grid = SimpleNamespace(freqs_hz=freqs)
    profiles = {n: SimpleNamespace(grid=grid, values=v) for n, v in zip(names, columns)}
    return ours, profiles, SimpleNamespace(x=columns[0], y=columns[1])


@pytest.mark.parametrize("rows", CHUNK_EDGES)
def test_templates_match_per_row_writers_at_chunk_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    freqs = np.sort(rng.uniform(0, 2, rows))
    columns = list(rng.standard_cauchy((3, rows)))
    ours, profiles, pair = template_files(freqs, columns)
    rows_write_profile(profiles["m0"], tmp_path / "profile.csv")
    rows_write_plot_data(profiles, tmp_path / "plot.tsv")
    rows_write_pair(pair, tmp_path / "pair.csv")
    for name, path in [("profile", "profile.csv"), ("plot", "plot.tsv"), ("pair", "pair.csv")]:
        assert ours[name].encode() == (tmp_path / path).read_bytes(), name
        assert ours[name].count("\n") == rows + 1, name
    assert len(row_templates(format_column(freqs), 1, ",")) == -(-rows // CHUNK_ROWS)


def assert_writers_match_rows(profiles, pair, tmp_path):
    """The CLI's profile and plot-data writers and ``write_pair`` give the oracles' bytes."""
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    _write_outputs(out, profiles)
    _write_plot_data(profiles, out / "plot_data.tsv")
    assert_profiles_match_rows(profiles, out, oracle)
    rows_write_plot_data(profiles, oracle / "plot_data.tsv")
    assert (out / "plot_data.tsv").read_bytes() == (oracle / "plot_data.tsv").read_bytes()
    write_pair(pair, out / "pair.csv")
    rows_write_pair(pair, oracle / "pair.csv")
    assert (out / "pair.csv").read_bytes() == (oracle / "pair.csv").read_bytes()


@pytest.mark.parametrize("rows", [2, *CHUNK_EDGES[1:]])
def test_writers_match_per_row_writers_at_chunk_edges(tmp_path, rows):
    # a grid and a pair hold at least 2 rows; one row is checked on the builders above
    rng = np.random.default_rng(rows)
    grid = FrequencyGrid(rows, 4.0)
    profiles = {n: SpectralProfile(grid, rng.standard_cauchy(rows), n) for n in ("gc", "gi")}
    pair = TimeSeriesPair(*rng.standard_normal((2, rows)), fs=1.0)
    assert_writers_match_rows(profiles, pair, tmp_path)


def test_special_values_pass_through_every_writer(tmp_path):
    values = np.array(SPECIAL)
    expected = ["0", "-0", "inf", "-inf", "4.94065645841247e-324", "1.79769313486232e+308",
                "2.2250738585072e-308", "0.333333333333333", "1e+16"]
    ours, _, _ = template_files(np.arange(len(values)) / 8, [values, values[::-1], values])
    assert [line.split(",")[1] for line in ours["profile"].splitlines()[1:]] == expected
    assert [line.split(",")[0] for line in ours["pair"].splitlines()[1:]] == expected
    plot_rows = [line.split("\t") for line in ours["plot"].splitlines()[1:]]
    assert [row[1] for row in plot_rows] == [row[3] for row in plot_rows] == expected
    # the writers themselves: profiles on a grid, and a pair of the finite ones (it holds no inf)
    grid = FrequencyGrid(len(values), 1.0)
    profiles = {"gi": SpectralProfile(grid, values, "gi"),
                "gc": SpectralProfile(grid, -values, "gc")}
    finite = values[np.isfinite(values)]
    assert_writers_match_rows(profiles, TimeSeriesPair(finite, finite[::-1], fs=1.0), tmp_path)


def test_a_label_holding_percent_signs_is_written_as_given():
    labels = ["50%", "%s", "100%%", "%.15g", "%"]
    text = fill_templates("label,value\n", row_templates(labels, 1, ","), [np.arange(5.0)])
    assert text == "label,value\n50%,0\n%s,1\n100%%,2\n%.15g,3\n%,4\n"


def test_templates_refuse_values_of_another_row_count():
    templates = row_templates(format_column(np.arange(CHUNK_ROWS + 1.0)), 1, ",")
    for rows in (CHUNK_ROWS, CHUNK_ROWS + 2, 3 * CHUNK_ROWS):
        with pytest.raises((TypeError, ValueError)):
            fill_templates("", templates, [np.zeros(rows)])


def test_each_grid_writes_its_own_frequencies(tmp_path):
    # one process writes grids of equal size and other rates, and other sizes, in turn
    rng = np.random.default_rng(7)
    for i, (points, fs) in enumerate([(129, 1.0), (129, 4.0), (257, 4.0), (129, 1.0)]):
        grid = FrequencyGrid(points, fs)
        profiles = {n: SpectralProfile(grid, rng.standard_normal(points), n) for n in ("a", "b")}
        pair = TimeSeriesPair(*rng.standard_normal((2, points)), fs=fs)
        (tmp_path / str(i)).mkdir()
        assert_writers_match_rows(profiles, pair, tmp_path / str(i))


def loader_outcomes(path):
    """The loader's and the per-row oracle's result: values, or the error message."""
    outcomes = []
    for loader in (load_pair, rows_load_pair):
        try:
            pair = loader(path, 1.0)
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
        else:
            outcomes.append(("values", pair.x.tolist(), pair.y.tolist()))
    return outcomes


def long_rows():
    """2000 rows of two numeric cells."""
    return [f"{a!r},{b!r}" for a, b in np.random.default_rng(5).normal(size=(2000, 2)).tolist()]


def test_load_names_deep_bad_cell(tmp_path):
    rows = long_rows()
    rows[1499] = rows[1499].split(",")[0] + ",oops"
    path = tmp_path / "deep.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("error", "non-numeric value 'oops' at row 1501, column 1")


def test_load_names_nan_cell(tmp_path):
    rows = long_rows()
    rows[700] = "nan," + rows[700].split(",")[1]
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(rows) + "\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("error", "non-finite value 'nan' at row 701, column 0")


def test_load_short_row_after_header(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n5.0\n7.0,oops\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("error", "row 4 has 1 columns, need at least 2")


def test_load_bad_cell_before_short_row_wins(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("1.0,2.0\n3.0,inf\n5.0\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("error", "non-finite value 'inf' at row 2, column 1")


def test_load_padded_cells(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_text(" x , y \n  1.5 ,\t-2\n3e-2  ,  4.0\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("values", [1.5, 0.03], [-2.0, 4.0])


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x,y\n\n1.0,2.0\n  ,\t\n3.0,4.0\n\n\n5.0,6.0\n")
    ours, oracle = loader_outcomes(path)
    assert ours == oracle == ("values", [1.0, 3.0, 5.0], [2.0, 4.0, 6.0])


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_load_drops_byte_order_mark(tmp_path, header):
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + header + "1.0,2.0\n3.0,4.0\n5.0,6.0\n").encode("utf-8"))
    pair = load_pair(path, fs=1.0)
    assert pair.n == 3
    assert pair.x.tolist() == [1.0, 3.0, 5.0]
    assert pair.y.tolist() == [2.0, 4.0, 6.0]


def test_cli_analyzes_headerless_bom_file(tmp_path, capsys, sim_csv):
    body = Path(sim_csv).read_bytes().split(b"\n", 1)[1]
    plain = tmp_path / "plain.csv"
    plain.write_bytes(body)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + body)
    args = ["analyze", "--fs", "1", "--order", "2", "--detrend-cutoff", "off",
            "--grid-points", "9"]
    assert main(args + ["--input", str(plain), "--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--input", str(bom), "--out", str(tmp_path / "bom")]) == 0
    capsys.readouterr()
    for name in ("report.json", "profile_ga.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
