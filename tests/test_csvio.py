"""write_csv against the one-template '%.17g' writer, byte for byte."""

import math
import os
import tracemalloc
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




def mixed_columns(rows, ncols, seed):
    """Columns of cells in and out of the fast range, in every layout form."""
    rng = np.random.default_rng(seed)
    return {f"c{j}": rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows)
            for j in range(ncols)}


def test_block_sizes():
    # a 32nd of the cells, within 4,096 and 32,768 cells, in whole rows
    assert csvio._block_rows(1, 3) == 1365
    assert csvio._block_rows(3481, 9) == 455
    assert csvio._block_rows(43_690, 3) == 1365
    assert csvio._block_rows(50_000, 3) == 1562
    assert csvio._block_rows(1_015_928, 3) == 10_922
    assert csvio._block_rows(203_548, 10) == 3276
    assert csvio._block_rows(10, 100_000) == 1


@pytest.mark.parametrize("rows, block_rows, block_cells", [
    (43_690, 1365, 4096),   # 131,070 cells: blocks at the small bound
    (50_000, 1562, 4096),   # 150,000 cells: a 32nd of the table
    (5000, 156, 64),        # the same at the large bound, scaled down
    (6000, 170, 64),
])
def test_blocks_around_the_size_thresholds(tmp_path, monkeypatch, rows, block_rows,
                                           block_cells):
    # the bounds are _BLOCK_ROWS // 16 and // 2 cells; a last block is partial
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 16 * block_cells)
    assert csvio._block_rows(rows, 3) == block_rows and rows % block_rows
    assert_same_bytes(tmp_path, mixed_columns(rows, 3, rows))


def test_table_is_written_as_its_columns(tmp_path):
    # a Table's blocks, formed on request, give the bytes of the same
    # columns as arrays; a non-finite value in its last block removes the
    # part of the file written before it
    columns = mixed_columns(50_000, 3, 7)
    calls = []

    def block(a, b):
        calls.append((a, b))
        return [c[a:b] for c in columns.values()]

    table = csvio.Table(tuple(columns), 50_000, block)
    csvio.write_csv(tmp_path / "table.csv", table)
    csvio.write_csv(tmp_path / "arrays.csv", columns)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()
    step = csvio._block_rows(50_000, 3)
    assert calls == [(a, min(a + step, 50_000)) for a in range(0, 50_000, step)]
    columns["c2"][-1] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        csvio.write_csv(tmp_path / "bad.csv", table)
    assert not (tmp_path / "bad.csv").exists()


# Traced bytes per cell of a table's largest block: the block, its work
# arrays (137 B per cell) and its text before and after the 0 bytes are
# dropped; measured 207 B at 4,096 cells and 211 B at 32,768 cells.
PEAK_BYTES_PER_BLOCK_CELL = 256


def traced_write_peak(rows, ncols):
    """Traced peak of writing normally distributed cells, which all take
    the fast path but a few dozen per million."""
    rng = np.random.default_rng(rows)
    columns = {f"c{j}": rng.standard_normal(rows) for j in range(ncols)}
    tracemalloc.start()
    try:
        csvio.write_csv(os.devnull, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mid_sized_table_keeps_small_blocks():
    # ring_plane's fieldmap.csv: 3,481 x 9 cells in 4,096-cell blocks, 0.85 MB
    peak = traced_write_peak(3481, 9)
    assert peak < csvio._BLOCK_ROWS // 16 * PEAK_BYTES_PER_BLOCK_CELL


def test_large_table_stays_within_the_largest_block():
    # 3e6 cells in 32,768-cell blocks, 6.9 MB
    peak = traced_write_peak(1_000_000, 3)
    assert peak < csvio._BLOCK_ROWS // 2 * PEAK_BYTES_PER_BLOCK_CELL


def assert_same_bits(z):
    """csvio.angle(z) is math.atan2(imag, real) of each value, bit for bit."""
    got = csvio.angle(z)
    want = np.array([math.atan2(v.imag, v.real) for v in z.tolist()])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} differ, the first at {z[bad[:3]]}"
    return got


def test_angle_is_math_atan2_bit_for_bit():
    rng = np.random.default_rng(20261019)
    n = 1_000_000
    # magnitudes 1e-300 to 1e300 at any angle
    r = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 300, n).astype(float)
    assert_same_bits(r * np.exp(1j * rng.uniform(-math.pi, math.pi, n)))
    # real and imaginary parts of independent magnitudes: some quotients
    # underflow, where atan2 returns a subnormal or 0
    parts = (rng.choice([-1.0, 1.0], (2, n // 10)) * rng.uniform(1.0, 10.0, (2, n // 10))
             * 10.0 ** rng.integers(-300, 300, (2, n // 10)).astype(float))
    assert_same_bits(parts[0] + 1j * parts[1])


def test_angle_signed_zeros_axes_and_subnormals():
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
             1.7976931348623157e308]
    values = np.array(edges + [-x for x in edges])
    # every (real, imag) pair: +-0 and the axes included
    z = np.empty(values.size ** 2, complex)
    z.real = np.repeat(values, values.size)
    z.imag = np.tile(values, values.size)
    got = assert_same_bits(z).reshape(values.size, values.size)
    plus, minus = 0, len(edges)
    assert math.copysign(1.0, got[plus, minus]) == -1.0
    assert got[minus, plus] == math.pi
    assert got[minus, minus] == -math.pi
