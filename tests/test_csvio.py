"""write_csv against the one-template '%.17g' writer, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearfocus import csvio

from oracles import template_write_csv


def assert_same_bytes(tmp_path, columns):
    csvio.write_csv(tmp_path / "numpy.csv", columns)
    template_write_csv(tmp_path / "template.csv", columns)
    got = (tmp_path / "numpy.csv").read_bytes()
    want = (tmp_path / "template.csv").read_bytes()
    if got != want:
        bad = [(a, b) for a, b in zip(got.split(b"\n"), want.split(b"\n")) if a != b]
        pytest.fail(f"{len(bad)} lines differ, the first: {bad[:3]}")


def is_tie(x: float) -> bool:
    """True when x is exactly halfway between two 17-digit decimals."""
    exponent = math.floor(math.log10(abs(x)))
    scaled = Fraction(x) * Fraction(10) ** (16 - exponent)
    return scaled.denominator == 2


def test_random_cells_over_every_decimal_exponent(tmp_path):
    rng = np.random.default_rng(20261018)
    n = 1_100_000
    with np.errstate(over="ignore"):
        v = (rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
             * 10.0 ** rng.integers(-320, 309, n).astype(float))
    v = v[np.isfinite(v)][:1_000_000]
    assert v.size == 1_000_000
    assert_same_bytes(tmp_path, {"a": v[:500_000], "b": v[500_000:]})


def test_ties_round_half_to_even(tmp_path):
    rng = np.random.default_rng(7)
    k = np.arange(1 << 16)
    # 1 + odd * 2**-17 has 17 decimals ending in 5: a tie at 17 digits,
    # as is odd * 2**(E - 17) in [10**E, 10**(E + 1)) for every E in range
    ties = [1.0 + (2 * k + 1) * 2.0 ** -17]
    for exponent in range(-5, 16):
        step = 2.0 ** (exponent - 17)
        lo = math.ceil(10.0 ** exponent / step / 2)
        hi = min(math.floor(10.0 ** (exponent + 1) / step / 2), 2 ** 51)
        ties.append((2 * rng.integers(lo, hi, 2000) + 1) * step)
    ties = np.concatenate(ties)
    assert all(is_tie(float(x)) for x in ties[::97])
    # a quarter of the way between two 17-digit decimals
    near_ties = 1.0 + k * 2.0 ** -17 + 2.0 ** -18
    assert_same_bytes(tmp_path, {"tie": ties, "minus": -ties})
    assert_same_bytes(tmp_path, {"near_tie": near_ties})


def test_powers_of_ten_and_range_edges(tmp_path):
    powers = 10.0 ** np.arange(-6, 18)
    ulps = np.arange(-40, 41)[:, None] * np.spacing(powers)[None, :]
    cells = np.concatenate([(powers + ulps).ravel(), np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf)])
    for edge in (1e-5, 1e16):
        cells = np.append(cells, [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1e300)])
    assert_same_bytes(tmp_path, {"x": cells, "minus_x": -cells})


def test_zeros_subnormals_and_integers(tmp_path, monkeypatch):
    floats = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                       2.2250738585072014e-308, 1.7976931348623157e308, -1.0, 1.0,
                       123456789.0, 2.0 ** 53, 2.0 ** 53 + 2, 1e15 + 1, 1e16, 1e17, 1e22,
                       1e23, 0.02, -0.5])
    ints = np.array([0, 1, -7, 99, 10 ** 15, 2 ** 53 + 1, 10 ** 16, 10 ** 17, 10 ** 17 + 1,
                     -10 ** 18, 2 ** 62, -2 ** 63, 2 ** 63 - 1, 3, 42, 5, 6, 7, 8],
                    dtype=np.int64)
    columns = {"f": floats, "i": ints, "u": ints.astype(np.uint64)}
    assert_same_bytes(tmp_path, columns)
    # blocks of one row: every cell kind at a block boundary
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 2)
    assert_same_bytes(tmp_path, columns)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats(tmp_path, values):
    assert_same_bytes(tmp_path, {"v": np.array(values), "w": np.array(values[::-1])})
