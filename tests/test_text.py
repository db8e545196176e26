"""The whole-array dump formatter against Python's own per-value formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcontrol._text import BLOCK_VALUES, _significands, text_rows


def per_value(values):
    return "".join(f"{x:.17g}\n" for x in values).encode()


def vectorized(values):
    chunks = list(text_rows(np.asarray(values, dtype=np.float64)))
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    return b"".join(chunks)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    min_size=1, max_size=40,
))
def test_matches_format_property(values):
    assert vectorized(values) == per_value(values)


def _neighbours(x, steps=3):
    out = [x]
    for direction in (0.0, np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


FIXED_CASES = (
    [0.0, -0.0, 0.2, -0.2, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
     2.2250738585072014e-308, 1.7976931348623157e308]
    # powers of ten and their neighbours
    + [y for k in range(-7, 18) for x in (float(f"1e{k}"),) for y in _neighbours(x)]
    # the fixed/exponent switch near 1e-4 and 1e-5, and near 1e16 and 1e17
    + [y for x in (1e-4, 1e-5, 1e16, 1e17,
                   9.99999999999999995e-5, 9.99999999999999995e-6,
                   9999999999999999.5, 99999999999999999.0)
       for y in _neighbours(x, steps=8)]
)


def test_fixed_cases():
    values = np.array(FIXED_CASES)
    assert vectorized(values) == per_value(values)
    assert vectorized(-values) == per_value(-values)
    assert vectorized([0.2, -0.2]) == b"0.20000000000000001\n-0.20000000000000001\n"


def test_near_ties_of_the_seventeenth_digit():
    # 18-digit decimals ending in 5 parse to the double nearest a tie
    rng = np.random.default_rng(1809)
    mantissas = rng.integers(10**16, 10**17, size=10_000)
    exponents = rng.integers(-30, 12, size=10_000)
    values = [float(f"{m}5e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert vectorized(values) == per_value(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(2018)
    values = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    assert len(values) > BLOCK_VALUES  # more than one block
    assert vectorized(values) == per_value(values.tolist())


def test_random_values_in_the_fast_window():
    # the bit patterns above land mostly outside 1e-6..1e17
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-7, 18, 100_000)
    assert vectorized(values) == per_value(values.tolist())


def test_fast_path_covers_its_window():
    # every double whose 17-digit exponent lies in -6..16 is formatted
    # without ``format``, also where floor(log10) misjudges the exponent
    rng = np.random.default_rng(11)
    powers = [float(f"1e{k}") for k in range(-6, 18)]
    values = np.concatenate([
        10.0 ** rng.uniform(-6, 17, 100_000),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
    ])
    values = values[(values > 1e-6) & (values < 1e17)]
    with np.errstate(all="raise"):
        ok, n, exponent = _significands(values)
    assert ok.all()
    assert ((n >= 10**16) & (n < 10**17)).all()
    assert ((exponent >= -6) & (exponent <= 16)).all()


def test_rows_mix_floats_integers_and_flags():
    x = np.array([0.5, -1e-5, 3.0, 1e300])
    flags = np.array([True, False, True, False])
    ids = np.array([0, 7, 10, 123456789012], dtype=np.int64)
    got = b"".join(text_rows(x, -x, flags, ids))
    expected = "".join(
        f"{a:.17g} {-a:.17g} {int(f)} {i}\n" for a, f, i in zip(x, flags, ids)
    ).encode()
    assert got == expected


def test_rows_come_in_whole_line_blocks():
    n = BLOCK_VALUES  # three columns: several blocks
    columns = np.arange(3 * n, dtype=np.int64).reshape(3, n)
    chunks = list(text_rows(*columns))
    assert len(chunks) > 1 and all(c.endswith(b"\n") for c in chunks)
    assert b"".join(chunks) == "".join(
        f"{a} {b} {c}\n" for a, b, c in columns.T.tolist()
    ).encode()


def test_negative_integers_rejected():
    with pytest.raises(ValueError):
        list(text_rows(np.array([1, -2])))
