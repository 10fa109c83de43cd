"""shortest.repr_cells against ``repr``, byte for byte.

Each case formats its values in chunks, drops the NUL holes and compares
the result with ``repr`` of every value, so one comparison covers a whole
chunk; a mismatch is reported with the first value that differs.
"""

import numpy as np
import pytest

from fracstep.shortest import MAX_CELL, repr_cells

CHUNK = 1 << 16


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    for a in range(0, len(values), CHUNK):
        part = values[a : a + CHUNK]
        cells = repr_cells(part)
        assert cells.shape == (len(part), MAX_CELL)
        assert not cells[:, -1].any()  # the last byte is free for a separator
        cells[:, -1] = ord("\n")
        got = cells.tobytes().translate(None, b"\0").decode()
        want = "\n".join(map(repr, part.tolist())) + "\n"
        if got != want:
            for v, g in zip(part.tolist(), got.splitlines()):
                assert g == repr(v), f"bits {np.float64(v).view(np.uint64):#018x}"


def test_random_bit_patterns():
    bits = np.random.default_rng(20200525).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64))


def test_powers_of_two():
    assert_matches_repr(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_neighbours_of_powers_of_ten():
    p = 10.0 ** np.arange(-324, 309)
    assert_matches_repr(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]))


def test_integers_around_2_53():
    n = np.arange(-3000, 3000) + 2.0**53
    assert_matches_repr(np.concatenate([n, -n, n[::2] + 1.0, np.arange(-3000.0, 3000.0)]))


@pytest.mark.parametrize("boundary", [1e-4, 1e16])
def test_form_boundaries(boundary):
    # repr switches between positional and exponent form at both
    x = boundary * np.array([1.0, 10.0, 0.1])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    x = np.concatenate([x, np.nextafter(np.nextafter(x, 0.0), 0.0), 9.999999999999999 * x])
    assert_matches_repr(np.concatenate([x, -x]))


def test_zeros_subnormals_and_non_finite_values():
    subnormal = np.ldexp(1.0, -1074) * np.array([1, 2, 3, 7, 10, 2**51, 2**52 - 1])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 2.2250738585072014e-308]
    assert_matches_repr(np.concatenate([subnormal, -subnormal, special]))


def test_shape_and_empty_input():
    assert repr_cells(np.zeros((3, 4))).shape == (3, 4, MAX_CELL)
    assert repr_cells(np.zeros(0)).shape == (0, MAX_CELL)
    assert repr_cells([0.5]).tobytes().replace(b"\0", b"") == b"0.5"


def test_widest_reprs_leave_the_last_byte_free():
    # 24 bytes, the most a repr takes, and 17-digit negatives at decpt -3 and decpt 16
    widest = np.array([-2.2250738585072014e-308, -1.7976931348623157e308, -1.2345678901234567e-100])
    runs = [np.array([x]).view(np.int64) + np.arange(-20, 21) for x in (-1.2345678901234567e-4, -1234567890123456.7)]
    small, large = (run.view(np.float64) for run in runs)
    assert all(repr(v).startswith("-0.0001") for v in small.tolist())
    assert sum(len(repr(v)) == 23 for v in small.tolist()) >= 20
    assert all(len(repr(v).split(".")[0]) == 17 and len(repr(v)) == 19 for v in large.tolist())
    x = np.concatenate([widest, small, large])
    assert max(len(repr(v)) for v in x.tolist()) == 24 and MAX_CELL >= 25
    with np.errstate(over="ignore"):  # -1.7976931348623157e+308 steps to -inf
        away = np.nextafter(x, -np.inf)
    assert_matches_repr(np.concatenate([x, np.nextafter(x, 0.0), away]))
