"""The C %.17g row formatter, g17_rows, against Python's own '%.17g' % x, value by value."""

import ctypes
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degen_blowup import cli, kernels

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

GUARD = 64  # bytes past the 25 a value that must stay untouched


def kernel_rows(table):
    """g17_rows' text of a (rows, columns) table, and the count of values it handed to snprintf."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    columns = [np.ascontiguousarray(table[:, j]) for j in range(cols)]
    pointers = (ctypes.c_void_p * cols)(*(c.ctypes.data for c in columns))
    hi, lo = (t.ctypes.data for t in kernels.pow10())
    out = np.full(25 * table.size + GUARD, 0xAB, np.uint8)
    slow = ctypes.c_long()
    size = kernels.load().g17_rows(rows, cols, pointers, 0, hi, lo, out.ctypes.data, ctypes.byref(slow))
    assert size <= 25 * table.size
    assert (out[25 * table.size :] == 0xAB).all(), "g17_rows wrote past 25 bytes a value"
    return out[:size].tobytes().decode(), slow.value


def kernel_text(values):
    """The kernel's text of each value, one value a row."""
    return kernel_rows(np.reshape(values, (-1, 1)))[0].splitlines()


def assert_matches_g17(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = kernel_text(values)
    want = ["%.17g" % v for v in values.tolist()]
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"


def neighbours(values, ulps):
    """Each value and the doubles up to `ulps` steps below and above it."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def exact_ties(rng, per_exponent):
    """Values whose 17-digit rounding is an exact tie: |x| * 10**q = odd / 2.

    x = m / 2**(q + 1) with m odd is one when m * 5**q lies in
    [2e16, 2e17), which needs q in 1..24 (e.g. 1250000000000000.25, q = 1).
    """
    ties = []
    for q in range(1, 25):
        low = -(-2 * 10**16 // 5**q)
        high = min(2 * 10**17 // 5**q, 2**53)
        m = rng.integers(low, high, per_exponent) | 1
        ties.append(m.astype(np.float64) / 2.0 ** (q + 1))
    return np.concatenate(ties)


def near_ties():
    """Values whose rounding fraction is 1/2 +- d * 2**-t, t = 40..71, d = 1..64.

    x = m / 2**(t + q) gives |x| * 10**q = m * 5**q / 2**t; m is the residue
    mod 2**t that puts the fraction there, kept when a value of it puts the
    product in [1e16, 1e17).
    """
    ties = []
    for q in range(17, 45):
        for t in range(40, 72):
            period = 2**t
            inverse = pow(5**q, -1, period)
            low = -(-(10**16) * period // 5**q)
            high = min(10**17 * period // 5**q, 2**53)
            for offset in [*range(-64, 0), *range(1, 65)]:
                m = (period // 2 + offset) * inverse % period
                m += max(0, -(-(low - m) // period)) * period
                if m < high:
                    ties.append(math.ldexp(m, -(t + q)))
    return np.array(ties)


def test_matches_g17_on_a_million_values():
    rng = np.random.default_rng(20240607)
    powers = np.array([10.0**q for q in range(-300, 301)])
    subnormal_bits = rng.integers(1, 2**52, 20000, dtype=np.int64)
    magnitudes = np.concatenate(
        [
            rng.integers(0, 2**63, 600000, dtype=np.uint64).view(np.float64),  # random bit patterns
            neighbours(powers, 50),
            neighbours([2.0**53, 1e16, 1e17], 2000),
            np.arange(2**53 - 1000, 2**53 + 1000, dtype=np.float64),
            exact_ties(rng, 2000),
            near_ties(),
            subnormal_bits.view(np.float64),
            [5e-324, 0.0, np.nan, np.inf, 1.7976931348623157e308, 2.2250738585072014e-308],
            neighbours([1e-280, 1e280], 50),
            rng.standard_normal(100000) * 10.0 ** rng.uniform(-20, 20, 100000),
        ]
    )
    values = np.concatenate([magnitudes, -magnitudes])
    assert values.size >= 1_000_000
    assert_matches_g17(values)


def test_special_values():
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1250000000000000.25, 1250000000000000.75]
    assert kernel_text(values) == ["0", "-0", "nan", "nan", "inf", "-inf", "1250000000000000.2", "1250000000000000.8"]


def test_values_of_24_characters_fill_the_buffer():
    # the longest '%.17g' texts, 24 characters and a separator: placed by the
    # kernel (the first two) and by snprintf (the rest)
    values = [-1.2345678901234567e-100, -1.2345678901234567e200, -4.9406564584124654e-324, -2.2250738585072014e-308]
    want = ["%.17g" % v for v in values]
    assert [len(w) for w in want] == [24] * 4
    text, slow = kernel_rows(np.array(values * 100).reshape(100, 4))
    assert len(text) == 25 * 400
    assert text == ",".join(want) + "\n" + (",".join(want) + "\n") * 99
    assert slow == 200


def test_notation_switches():
    # %g writes 0.0001 but 1.0000000000000001e-05, and 17 digits but 1e+17
    values = [1e-5, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, np.nextafter(1e17, 0), 1e17]
    assert kernel_text(values) == [
        "1.0000000000000001e-05",
        "9.9999999999999991e-05",
        "0.0001",
        "9999999999999998",
        "10000000000000000",
        "99999999999999984",
        "1e+17",
    ]
    assert_matches_g17(neighbours([1e-5, 1e-4, 1e16, 1e17], 1000))


@pytest.mark.parametrize("shape", [(0, 1), (1, 1), (8193, 1), (0, 3), (5, 3), (2, 4096)])
def test_shapes_and_block_edges(shape):
    rng = np.random.default_rng(sum(shape))
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    text, _ = kernel_rows(table)
    assert text == "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def test_fallback_takes_only_what_the_kernel_cannot_place():
    # snprintf costs several times the kernel's own path: zeros (68,798 of
    # them in the solve-fine subsolution column) and ordinary values must not reach it
    rng = np.random.default_rng(1)
    ordinary = np.concatenate([[0.0, -0.0, np.nan, 1.0, 1e-4, 0.5, 1e16, 1e17], rng.standard_normal(10000)])
    assert_matches_g17(ordinary)
    assert kernel_rows(ordinary[:, None])[1] == 0
    hard = [np.inf, -np.inf, 1e300, 1e-300, 5e-324, 1250000000000000.25]
    assert_matches_g17(hard)
    assert kernel_rows(np.array(hard)[:, None])[1] == len(hard)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_property_floats(values):
    assert_matches_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_property_bit_patterns(bits):
    assert_matches_g17(np.array(bits, dtype=np.uint64).view(np.float64))


def test_the_fallback_writes_the_kernels_bytes(tmp_path, monkeypatch):
    # where no compiler is found, _write_csv joins the _fmt text of Python
    # floats; a table of several chunks goes through the kernel's two threads
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308, -1.2345678901234567e-300]
    values = np.concatenate([special, rng.standard_normal(3 * cli._CSV_CHUNK_ROWS) * 10.0 ** rng.integers(-320, 300, 3 * cli._CSV_CHUNK_ROWS)])
    columns = (values, -values[::-1], rng.permutation(values))
    cli._write_csv(tmp_path / "kernel.csv", ["a", "b", "c"], columns)
    monkeypatch.setattr(kernels, "load", lambda: None)
    cli._write_csv(tmp_path / "fallback.csv", ["a", "b", "c"], columns)
    text = (tmp_path / "kernel.csv").read_bytes()
    assert text == (tmp_path / "fallback.csv").read_bytes()
    assert max(map(len, text.replace(b"\n", b",").split(b","))) == 24
