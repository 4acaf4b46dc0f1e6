"""Decoder outcomes on true, perturbed and arbitrary minors.

Every decode either refuses with NotACodewordError or AmbiguityError, or
returns a member of the class whose deletion ball holds the minor, as a clean
array: each cell an exact int in [0, q), equal to the array Array2D builds
from the same cells. A true minor that is decoded gives back its codeword.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.code_c1 import c1_check, c1_decode, c1_syndromes
from crisscross.code_c2 import c2_check, c2_decode, c2_syndromes
from crisscross.code_c3 import c3_check, c3_decode, c3_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    delete_rows_cols,
    deletion_brackets,
    interleave_residue_subarrays,
)
from crisscross.errors import AmbiguityError, NotACodewordError
from crisscross.verify import sample_good, sample_valid, sample_weakly_valid


def _c1(data, rng, uniform):
    n, q = data.draw(st.integers(3, 7)), data.draw(st.sampled_from([2, 3]))
    x = sample_good(n, q, rng, uniform_sums=uniform)
    return x, c1_syndromes(x, relaxed=data.draw(st.booleans())), (1, 1)


def _c2(data, rng, uniform):
    # ternary shapes whose classes the sampler fills at once, uniform or not
    l = data.draw(st.integers(1, 2))
    rows, cols = data.draw(st.integers(3 * l + 1, 3 * l + 3)), data.draw(st.integers(4, 7))
    rows_distinct = data.draw(st.booleans())
    x = sample_valid(rows, cols, 3, l, rng, uniform_sums=uniform, rows_distinct=rows_distinct)
    return x, c2_syndromes(x, l, rows_distinct), (1, 1)


def _c3(data, rng, uniform):
    # ternary subarrays at least 4x4, which hold an anchor with uniform sums
    t_r, t_c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    n, q = data.draw(st.sampled_from([8, 12])), 3
    m_r, m_c = n // t_r, n // t_c
    parts = [
        [
            sample_valid(m_r, m_c, q, 1, rng, uniform_sums=uniform, rows_distinct=True)
            if (s, u) == (0, 0)
            else sample_weakly_valid(m_r, m_c, q, 1, rng, uniform_sums=uniform)
            for u in range(t_c)
        ]
        for s in range(t_r)
    ]
    x = interleave_residue_subarrays(parts, t_r, t_c)
    return x, c3_syndromes(x, t_r, t_c, 1), (t_r, t_c)


FAMILIES = {
    "c1": (_c1, c1_decode, c1_check),
    "c2": (_c2, c2_decode, c2_check),
    "c3": (_c3, c3_decode, c3_check),
}


def _minor(data, x, t_r, t_c, burst):
    """A true minor of x, the same with one cell changed, or arbitrary cells
    of a minor's shape."""
    kind = data.draw(st.sampled_from(["true", "perturbed", "arbitrary"]))
    rows, cols = x.rows - t_r, x.cols - t_c
    if kind == "arbitrary":
        flat = data.draw(st.lists(st.integers(0, x.q - 1), min_size=rows * cols,
                                  max_size=rows * cols))
        return kind, Array2D([flat[r * cols:(r + 1) * cols] for r in range(rows)], x.q)
    i, j = data.draw(st.integers(1, rows + 1)), data.draw(st.integers(1, cols + 1))
    pattern = BurstPattern(i, j, t_r, t_c) if burst else DeletionPattern((i,), (j,))
    y = delete_rows_cols(x, pattern)
    if kind == "perturbed":
        cells = [list(row) for row in y.cells]
        r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        cells[r][c] = (cells[r][c] + data.draw(st.integers(1, x.q - 1))) % x.q
        y = Array2D(cells, x.q)
    return kind, y


@pytest.mark.parametrize("family, path", [
    ("c1", "fast"), ("c1", "scan"), ("c2", "fast"), ("c2", "scan"), ("c3", "auto"),
])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_decode_refuses_or_returns_a_clean_member_explaining_the_minor(family, path, data):
    sample, decode, check = FAMILIES[family]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # the fast path needs uniform sums; the scan and residue paths take any
    uniform = path == "fast" or data.draw(st.booleans())
    x, p, (t_r, t_c) = sample(data, rng, uniform)
    burst = family == "c3"
    kind, y = _minor(data, x, t_r, t_c, burst)
    try:
        out = decode(y, p, path)
    except AmbiguityError:
        return
    except NotACodewordError:
        assert kind != "true"
        return
    q = p.q
    assert check(out.array, p)
    assert deletion_brackets(out.array, y, t_r, t_c, burst) is not None
    assert all(type(v) is int and 0 <= v < q for row in out.array.cells for v in row)
    assert out.array == Array2D(out.array.cells, q)
    assert kind != "true" or out.array == x


def test_fast_decodes_build_no_validated_array(array_builds):
    # a decode derives its result from the minor, which was validated when
    # it was built, so Array2D's own checks never run inside one
    rng = random.Random(5)
    c1_x = sample_good(8, 3, rng, uniform_sums=True)
    c2_x = sample_valid(9, 9, 2, 2, rng, uniform_sums=True)
    cases = [(c1_decode, c1_x, c1_syndromes(c1_x)), (c2_decode, c2_x, c2_syndromes(c2_x, 2))]
    derived, validated = array_builds
    for decode, x, p in cases:
        for i, j in ((1, 1), (4, 2), (x.rows, x.cols)):
            y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
            derived.clear()
            validated.clear()
            assert decode(y, p, "fast").array == x
            assert len(derived) == 1 and not validated
