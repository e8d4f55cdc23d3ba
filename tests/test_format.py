"""The sweep CSV formatter of crosscav.cli against Python's `%` operator.

`_column_rows` formats a long column with a numpy kernel and a short one
with `%`; every row must be the bytes of "%22.14e" % x either way.
"""

from math import inf, nan

import numpy as np
import pytest

from crosscav import cli
from crosscav.cli import _CHUNK, _KERNEL_MIN, _column_rows, _sweep_blocks

_POW10 = [float(f"1e{k}") for k in range(-300, 301)]


def kernel_rows(values):
    """Rows of `values` made by the kernel: short inputs are padded with
    1.0 up to the length at which the kernel takes over."""
    v = np.asarray(values, dtype=np.float64).ravel()
    pad = max(_KERNEL_MIN - len(v), 0)
    return _column_rows(np.concatenate([v, np.ones(pad)]))[:len(v)]


def assert_matches_percent(values):
    v = np.asarray(values, dtype=np.float64).ravel()
    got = kernel_rows(v)
    want = np.frombuffer("".join("%22.14e" % x for x in v.tolist()).encode(), np.uint8)
    bad = np.flatnonzero((got != want.reshape(len(v), 22)).any(axis=1))
    # as strings: a failure names the first few values that differ
    assert [("%r" % v[i], got[i].tobytes().decode()) for i in bad[:5]] == []


def test_ulps_around_every_power_of_ten():
    # a first kernel certified the rounded integer instead of the unrounded
    # product and mis-rounded most values just below a power of ten
    bits = np.array(_POW10).view(np.int64)[:, None] + np.arange(-60, 61)
    sign = np.resize([1.0, -1.0], bits.shape[1])  # both signs of every power
    assert_matches_percent(bits.view(np.float64) * sign)


def test_one_plus_or_minus_a_few_units_in_the_fifteenth_digit():
    c = np.arange(1, 51) * 1e-15
    scale = np.concatenate([1 + c, 1 - c])
    assert_matches_percent(np.array(_POW10)[:, None] * scale)


def test_exact_and_scaled_ties():
    rng = np.random.default_rng(5)
    # 16-digit integers ending in 5 are exact ties at 15 digits, and so is
    # m / 2^j when m 5^j has 16 digits
    ints = rng.integers(10**14, 9 * 10**14, 400) * 10 + 5
    ties = [float(n) for n in ints.tolist()]
    for j in range(1, 22):
        low, high = -(-10**15 // 5**j), 10**16 // 5**j
        ties += [m / 2**j for m in rng.integers(low, high, 20).tolist() if m % 2]
    assert_matches_percent(ties)
    assert_matches_percent(-np.array(ties))
    # scaled by powers of ten they lie within rounding of a tie
    assert_matches_percent(ints.astype(np.float64)[:, None] * np.array(_POW10[:591:7]))


def test_rounding_carries_into_the_exponent():
    near = np.array([float(f"9.99999999999999{d}5e{k}") for k in range(-300, 301, 3)
                     for d in (4, 9)])
    assert_matches_percent(np.nextafter(near[:, None], [-inf, 0.0, inf]))


def test_special_values_and_three_digit_exponents():
    rng = np.random.default_rng(6)
    specials = [0.0, -0.0, inf, -inf, nan, 5e-324, -5e-324, 1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                1e-280, 1e280, 1e100, 9.99999999999999e99, 1e-100, 1e-99]
    assert_matches_percent(specials)
    wide = rng.random(2000) * 10.0 ** rng.integers(100, 309, 2000)
    assert_matches_percent(np.concatenate([wide, 1 / wide, -wide]))


def test_any_double():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(st.floats())
    def check(x):
        assert_matches_percent([x])

    check()


def row_reference(engine, columns_at, r_list, xs):
    return [",".join(["%.14e" % x, "%.14e" % r, *("%.14e" % c[i] for c in columns_at[r]),
                      engine])
            for r in r_list for i, x in enumerate(xs)]


@pytest.mark.parametrize("n", [_KERNEL_MIN - 1, _KERNEL_MIN,
                               4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1])
def test_sweep_rows_at_the_short_run_and_chunk_edges(n):
    # columns with both signs, three-digit exponents, ties and -0.0, and a
    # block whose second column equals the block before's
    rng = np.random.default_rng(n)
    xs = np.linspace(-1.0, 1.0, n)

    def column():
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
        c[::7] = 1e15 + 5 + np.arange(0, 10 * n, 70)  # ties at 15 digits
        c[::11] = -0.0
        return c.tolist()

    shared = column()
    columns_at = {1.0: (column(), shared), 2.5: (column(), shared)}
    rows = "\n".join(_sweep_blocks("e", {"e": lambda r, xs: columns_at[r]},
                                   [1.0, 2.5], xs, "x,r,a,b,engine")).split("\n")
    assert rows == row_reference("e", columns_at, [1.0, 2.5], xs.tolist())


@pytest.mark.parametrize("n", [3, _KERNEL_MIN + 5])
def test_sweep_names_the_first_non_finite_cell(n):
    xs = np.arange(n) / 4.0
    a = [0.5] * n
    b = [0.5] * n
    a[2], b[1] = inf, nan
    with pytest.raises(ValueError) as exc:
        _sweep_blocks("e", {"e": lambda r, xs: (a, b)}, [0.25], xs, "T_s,r_per_s,a,b,engine")
    assert str(exc.value) == "e engine: non-finite b = nan at r_per_s = 0.25, T_s = 0.25"


@pytest.mark.parametrize("bad", [nan, inf, -inf])
def test_cli_exits_1_on_a_non_finite_value(monkeypatch, capsys, bad):
    def closed_form(p, k, r, gamma, T):
        return bad if p.phi > 3.0 else 0.5

    monkeypatch.setattr(cli, "prob_e_two_cavity", closed_form)
    assert cli.main(["sweep-phi", "--points", "5", "--r-list", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: analytic engine: non-finite p_e = {bad} at "
                            f"r_per_s = 1000.0, phi_rad = 3.141592653589793\n")
