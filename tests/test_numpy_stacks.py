"""The numpy behaviour that stats_grid's stacks of rows rely on, pinned where it shows first.

stats_grid runs a stack of cells with one call per step, and each row must round as
the one-row call of run_mzi does.  If a numpy upgrade breaks that, these tests fail,
not the bytes of a sweep CSV.
"""

import numpy as np
import pytest

SIZES = pytest.mark.parametrize("n", [256, 4096])
ROWS = pytest.mark.parametrize("k", range(1, 9))


def stack(k, n):
    rng = np.random.default_rng(1000 * k + n)
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


def inverse(x, out):
    return np.fft.ifft(x, norm="forward", out=out)


@SIZES
@ROWS
@pytest.mark.parametrize("transform", [np.fft.fft, inverse], ids=["fft", "ifft_forward"])
def test_fft_of_a_stack_in_place_equals_one_row_calls(k, n, transform):
    rows = stack(k, n)
    got = rows.copy()
    transform(got, out=got)
    for row, got_row in zip(rows, got):
        one = row.copy()
        transform(one, out=one)
        assert got_row.tobytes() == one.tobytes()


@SIZES
@ROWS
def test_row_sums_equal_each_rows_own_sum(k, n):
    square = np.abs(stack(k, n)) ** 2
    expected = np.array([np.sum(row) for row in square])
    assert np.sum(square, axis=-1).tobytes() == expected.tobytes()


@SIZES
@ROWS
def test_a_column_operand_rounds_as_each_rows_scalar(k, n):
    rows = stack(k, n)
    column = np.exp(1j * np.linspace(-3.0, 3.0, k))[:, None]
    expected = np.array([c * row for c, row in zip(column[:, 0], rows)])
    assert np.multiply(column, rows).tobytes() == expected.tobytes()
