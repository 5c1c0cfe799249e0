"""Loading, validation, and preprocessing of paired series."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import signal

from gica.timeseries import (
    TimeSeriesPair,
    highpass_detrend,
    load_pair,
    preprocess,
    remove_mean,
    write_pair,
)


def test_pair_basic_properties():
    pair = TimeSeriesPair(np.arange(5.0), np.ones(5), fs=2.0)
    assert pair.n == 5
    assert pair.fs == 2.0


def test_pair_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="lengths differ"):
        TimeSeriesPair(np.arange(5.0), np.arange(4.0), fs=1.0)


def test_pair_rejects_non_finite():
    y = np.ones(5)
    y[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TimeSeriesPair(np.arange(5.0), y, fs=1.0)


def test_pair_rejects_bad_fs():
    with pytest.raises(ValueError, match="sampling"):
        TimeSeriesPair(np.arange(5.0), np.arange(5.0), fs=0.0)


def test_pair_rejects_too_short():
    with pytest.raises(ValueError):
        TimeSeriesPair(np.array([1.0]), np.array([2.0]), fs=1.0)


def test_pair_arrays_read_only():
    pair = TimeSeriesPair(np.arange(3.0), np.arange(3.0), fs=1.0)
    with pytest.raises(ValueError):
        pair.x[0] = 99.0


def test_write_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    pair = TimeSeriesPair(rng.normal(size=64), rng.normal(size=64), fs=4.0)
    path = tmp_path / "pair.csv"
    write_pair(pair, path)
    back = load_pair(path, fs=4.0)
    assert_allclose(back.x, pair.x, rtol=0, atol=1e-12)
    assert_allclose(back.y, pair.y, rtol=0, atol=1e-12)


def test_load_detects_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    pair = load_pair(path, fs=1.0)
    assert_allclose(pair.x, [1.0, 3.0, 5.0])
    assert_allclose(pair.y, [2.0, 4.0, 6.0])


def test_load_without_header(tmp_path):
    path = tmp_path / "nh.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    pair = load_pair(path, fs=1.0)
    assert pair.n == 2


def test_load_custom_columns_and_delimiter(tmp_path):
    path = tmp_path / "wide.tsv"
    path.write_text("t\ta\tb\n0\t1.5\t-2.5\n1\t2.5\t-3.5\n")
    pair = load_pair(path, fs=1.0, columns=(2, 1), delimiter="\t")
    assert_allclose(pair.x, [-2.5, -3.5])
    assert_allclose(pair.y, [1.5, 2.5])


@pytest.mark.parametrize("columns", [(-1, 0), (1, 1)])
def test_load_rejects_negative_or_equal_columns(tmp_path, columns):
    # -1 would read the last column, swapping the pair; equal columns fit no model
    path = tmp_path / "wide.csv"
    path.write_text("0,1.5,-2.5\n1,2.5,-3.5\n2,0.5,1.5\n")
    with pytest.raises(ValueError, match=f"x {columns[0]} and y {columns[1]}"):
        load_pair(path, fs=1.0, columns=columns)


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_load_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # checked before the file is opened: csv.reader would raise a TypeError
    with pytest.raises(ValueError, match=f"delimiter must be one character, got {delimiter!r}"):
        load_pair(tmp_path / "absent.csv", fs=1.0, delimiter=delimiter)


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        load_pair(missing, fs=1.0)


def test_load_reports_bad_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        load_pair(path, fs=1.0)


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="column"):
        load_pair(path, fs=1.0)


def test_load_rejects_non_finite_cell(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0,2.0\ninf,4.0\n")
    with pytest.raises(ValueError, match="finite"):
        load_pair(path, fs=1.0)


def test_remove_mean_is_exact():
    rng = np.random.default_rng(0)
    s = rng.normal(loc=5.0, size=256)
    out = remove_mean(s)
    assert abs(out.mean()) < 1e-12


def test_highpass_kills_constant_offset():
    s = np.full(512, 7.0)
    out = highpass_detrend(s, fs=1.0)
    assert np.max(np.abs(out)) < 1e-6


def test_highpass_removes_slow_drift_keeps_fast_oscillation():
    n = 4096
    t = np.arange(n)
    slow = np.sin(2 * np.pi * 0.001 * t)  # well below the 0.0156 Hz corner
    fast = np.sin(2 * np.pi * 0.2 * t)
    out_slow = highpass_detrend(slow, fs=1.0)
    out_fast = highpass_detrend(fast, fs=1.0)
    assert np.std(out_slow) < 0.1 * np.std(slow)
    assert np.std(out_fast) > 0.95 * np.std(fast)


def test_highpass_needs_enough_samples():
    with pytest.raises(ValueError, match="at least"):
        highpass_detrend(np.ones(10), fs=1.0)
    with pytest.raises(ValueError, match="at least"):
        highpass_detrend(np.ones((2, 10)), fs=1.0)  # 20 values, 10 samples a row


def scipy_highpass(x, fs, cutoff):
    """Oracle: scipy's first-order Butterworth through ``filtfilt`` at the detrend's padlen."""
    b, a = signal.butter(1, cutoff, btype="highpass", fs=fs)
    padlen = int(min(3 * fs / (2 * np.pi * cutoff), x.shape[-1] - 2))
    return signal.filtfilt(b, a, x, padlen=padlen), padlen


@pytest.mark.parametrize("cutoff", [1e-4, 0.0156, 0.2, 0.45, 0.49])
def test_closed_form_coefficients_match_scipy_butter(cutoff):
    k = np.tan(np.pi * cutoff)
    b, a = signal.butter(1, cutoff, btype="highpass", fs=1.0)
    assert np.abs(b - np.array([1, -1]) / (1 + k)).max() <= 1e-15
    assert np.abs(a - np.array([1, (k - 1) / (k + 1)])).max() <= 1e-15


def test_highpass_keeps_every_sample_when_padlen_is_zero():
    # above 3 fs / (2 pi) the time constant is under a third of a sample: no padding to cut
    x = np.random.default_rng(6).standard_normal(64)
    ref, padlen = scipy_highpass(x, 1.0, 0.49)
    assert padlen == 0
    out = highpass_detrend(x, 1.0, 0.49)
    assert out.shape == (64,)
    assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(20, 5000),
    fs=st.sampled_from([0.5, 1.0, 4.0, 250.0]),
    padding=st.sampled_from(["none", "middle", "whole"]),
    u=st.floats(0.0, 1.0),
    scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_highpass_matches_scipy_filtfilt(n, fs, padding, u, scale, seed):
    # cutoff / fs placed so that padlen is 0, strictly between 0 and N - 2, or N - 2
    low, high = 3 / (2 * np.pi * (n - 2)), 3 / (2 * np.pi)  # padlen reaches N - 2, leaves 0
    ratio = {
        "none": high + (0.4999 - high) * (0.001 + 0.999 * u),
        "middle": 1.01 * low * (0.98 * high / (1.01 * low)) ** u,  # log-uniform in between
        "whole": low * (0.05 + 0.94 * u),
    }[padding]
    rng = np.random.default_rng(seed)
    x = 10.0**scale * (rng.standard_normal(n).cumsum() + rng.uniform(-100, 100))
    ref, padlen = scipy_highpass(x, fs, ratio * fs)
    assert {"none": padlen == 0, "whole": padlen == n - 2, "middle": 0 < padlen < n - 2}[padding]
    out = highpass_detrend(x, fs, ratio * fs)
    # both recursions round alike, and rounding grows with the time constant tau (in samples):
    # in 3000 random draws of these settings the largest gap was 0.42 eps (1 + tau) max|x|
    tau = 1 / (2 * np.pi * ratio)
    assert out.shape == x.shape
    assert np.abs(out - ref).max() <= 2 * np.finfo(float).eps * (1 + tau) * np.abs(x).max()


def test_highpass_rows_of_a_stack_match_each_row_alone():
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((2, 2000)).cumsum(axis=-1)
    out = highpass_detrend(stack, 1.0, 0.0156)
    for row, alone in zip(out, stack):
        assert np.array_equal(row, highpass_detrend(alone, 1.0, 0.0156))


def test_preprocess_none_cutoff_only_centers():
    rng = np.random.default_rng(3)
    pair = TimeSeriesPair(rng.normal(loc=2.0, size=128), rng.normal(size=128), fs=1.0)
    out = preprocess(pair, detrend_cutoff=None)
    assert abs(out.x.mean()) < 1e-12
    assert abs(out.y.mean()) < 1e-12
    # centering only: differences from the raw series are constant shifts
    assert np.ptp(pair.x - out.x) < 1e-12


def test_preprocess_cutoff_detrends_and_centers_both_channels():
    rng = np.random.default_rng(4)
    t = np.arange(2048)
    drift = np.sin(2 * np.pi * 0.0005 * t) * 5
    pair = TimeSeriesPair(rng.normal(size=2048) + drift, rng.normal(size=2048) + drift, fs=1.0)
    out = preprocess(pair, detrend_cutoff=0.0156)
    for raw, clean in [(pair.x, out.x), (pair.y, out.y)]:
        assert np.std(clean) < 0.5 * np.std(raw)
        assert abs(clean.mean()) < 1e-12
        assert np.array_equal(clean, remove_mean(highpass_detrend(raw, 1.0, 0.0156)))
    assert out.fs == pair.fs


def test_preprocess_has_no_default_cutoff():
    pair = TimeSeriesPair(np.arange(32.0), np.ones(32), fs=1.0)
    with pytest.raises(TypeError):
        preprocess(pair)
