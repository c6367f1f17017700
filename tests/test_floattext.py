"""The float text kernel against ``float.__repr__``, on fixed cases.

``qrot._floattext.float_texts`` must return ``repr`` of every value, byte for
byte: on random bit patterns from a fixed seed, and on the values where the
shortest digits or Python's layout are hardest to get right.
"""

import math

import numpy as np
import pytest

from qrot._floattext import float_texts


def around(x, count):
    """``x`` and the ``count`` doubles on each side of it."""
    values = [x]
    for toward in (0.0, np.inf):
        for _ in range(count):
            values.append(np.nextafter(values[-1], toward))
        values.append(x)
    return values[:-1]


def interval_ends_on_candidates():
    """Doubles of every binade from 2^54 up whose rounding interval ends
    exactly on a multiple of ``10^k`` or ``10^(k + 1)``, ``10^k <= ulp <
    10^(k + 1)``: the candidates of the shortest digits, so that only exact
    carries and borrows decide whether the end belongs to the interval."""
    values = []
    for e in range(54, 1024):
        half = 1 << (e - 53)  # half an ulp
        k = len(str(2 * half)) - 1
        for unit in (10**k, 10 ** (k + 1)):
            # an end D = v -+ half is an odd multiple of half, so the unit's
            # power of two may not exceed half's
            twos = (e - 53) - ((unit & -unit).bit_length() - 1)
            if twos < 0:
                continue
            step = unit << twos
            first = -(-(1 << e) // step) | 1
            for odd in (first, first + 2, (3 * first // 2) | 1):
                end = step * odd
                if (1 << e) <= end - half and end + half < (1 << (e + 1)):
                    values += [float(end + half), float(end - half)]
    return values


def hard_floats():
    """Powers of two from 2^-1074 and of ten from 1e-323, with both
    neighbours; the smallest normal, the largest subnormal and the largest
    double; the integers around 1e16 and the doubles around 1e-4, where the
    layout switches; the intervals that end on candidates; both signs of
    each."""
    powers_of_ten = [float(f"1e{e}") for e in range(-323, 309)]
    base = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), powers_of_ten])
    values = [base, np.nextafter(base, 0), np.nextafter(base, np.inf)]
    values.append([2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308])
    values.append([float(i) for i in range(10**16 - 40, 10**16 + 41)])
    values.append(around(1e-4, 40))
    values.append(interval_ends_on_candidates())
    values = np.concatenate(values)
    return np.concatenate([values, -values])


def reprs(values):
    return list(map(float.__repr__, values.tolist()))


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    values = np.sort(bits).view(np.float64)  # sorted bit patterns, as the encoder passes them
    values = values[np.isfinite(values)]
    assert float_texts(values) == reprs(values)


def test_hard_cases():
    values = hard_floats()
    texts = float_texts(values)
    assert texts == reprs(values)
    assert {"1e+16", "9999999999999998.0", "0.0001", "1e-05", "-1e-323"} <= set(texts)


def test_any_order_and_shape():
    values = hard_floats()
    values = values[np.random.default_rng(0).permutation(values.size)][:6000]
    assert float_texts(values.reshape(60, 100)) == reprs(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5],
        [],
        [2.2250738585072009e-308, 1.0, 0.5],
    ],
)
def test_values_that_take_repr(values):
    values = np.array(values, dtype=np.float64)
    assert float_texts(values) == reprs(values)
