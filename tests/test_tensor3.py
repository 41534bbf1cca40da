import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decoupline.tensor3 import (
    _read_matrix_lines,
    Tensor3,
    frob_norm_sq,
    khatri_rao,
    read_matrix,
    read_tensor,
    reconstruct,
    unfold,
    write_matrix,
    write_tensor,
)

dims = st.tuples(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
)


def rand_tensor(n, m, s, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor3(rng.standard_normal((n, m, s)))


def test_tensor_requires_3d():
    with pytest.raises(ValueError):
        Tensor3(np.zeros((2, 2)))


def test_from_flat_size_mismatch():
    with pytest.raises(ValueError):
        Tensor3.from_flat((2, 2, 2), np.arange(7.0))


def test_flat_layout_first_index_fastest():
    t = Tensor3.from_flat((2, 3, 2), np.arange(12.0))
    # offset i + j*n + k*n*m
    assert t.data[1, 0, 0] == 1.0
    assert t.data[0, 1, 0] == 2.0
    assert t.data[0, 0, 1] == 6.0
    assert np.array_equal(t.flat(), np.arange(12.0))


@settings(deadline=None, max_examples=40)
@given(dims, st.integers(0, 2**31 - 1))
def test_unfold_entry_positions(shape, seed):
    n, m, s = shape
    t = rand_tensor(n, m, s, seed)
    u1, u2, u3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        i, j, k = rng.integers(n), rng.integers(m), rng.integers(s)
        v = t.data[i, j, k]
        assert u1[i, j + k * m] == v
        assert u2[j, i + k * n] == v
        assert u3[k, i + j * n] == v


def test_unfold_bad_mode():
    with pytest.raises(ValueError):
        unfold(rand_tensor(2, 2, 2), 0)


def test_unfold_returns_fresh_matrix():
    t = rand_tensor(2, 3, 4)
    for mode in (1, 2, 3):
        u = unfold(t, mode)
        assert u.base is None


def test_khatri_rao_small_case():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
    out = khatri_rao(x, y)
    assert out.shape == (6, 2)
    # column c stacks x[0,c]*y[:,c] then x[1,c]*y[:,c]
    assert np.array_equal(out[:, 0], [5, 7, 9, 15, 21, 27])
    assert np.array_equal(out[:, 1], [12, 16, 20, 24, 32, 40])


def test_khatri_rao_shape_errors():
    with pytest.raises(ValueError):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        khatri_rao(np.zeros(3), np.zeros((3, 1)))


@settings(deadline=None, max_examples=30)
@given(dims, st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_cpd_unfolding_identities(shape, r, seed):
    n, m, s = shape
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((m, r))
    c = rng.standard_normal((s, r))
    t = reconstruct(a, b, c)
    scale = max(1.0, np.sqrt(frob_norm_sq(t)))
    assert np.allclose(unfold(t, 1), a @ khatri_rao(c, b).T, atol=1e-12 * scale)
    assert np.allclose(unfold(t, 2), b @ khatri_rao(c, a).T, atol=1e-12 * scale)
    assert np.allclose(unfold(t, 3), c @ khatri_rao(b, a).T, atol=1e-12 * scale)


def test_reconstruct_matches_slice_formula():
    rng = np.random.default_rng(3)
    a, b, c = rng.standard_normal((3, 2)), rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
    t = reconstruct(a, b, c)
    for k in range(5):
        expect = a @ np.diag(c[k]) @ b.T
        assert np.allclose(t.data[:, :, k], expect, atol=1e-13)


def test_frob_norm_sq_brute_force():
    t = rand_tensor(3, 2, 4, seed=9)
    total = 0.0
    for i in range(3):
        for j in range(2):
            for k in range(4):
                total += t.data[i, j, k] ** 2
    assert frob_norm_sq(t) == pytest.approx(total, rel=1e-14)


def test_tensor_file_round_trip(tmp_path):
    t = rand_tensor(2, 3, 4, seed=11)
    p = tmp_path / "t.txt"
    write_tensor(t, p)
    back = read_tensor(p)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((4, 3))
    p = tmp_path / "m.txt"
    write_matrix(mat, p)
    assert np.array_equal(read_matrix(p), mat)


def test_matrix_file_bytes_match_per_scalar_repr(tmp_path):
    mat = np.array([
        [-0.0, 0.0, 5e-324, 2.225073858507201e-308],
        [np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308],
        [0.1, 1 / 3, np.nan, -1e-300],
    ])
    p = tmp_path / "m.txt"
    write_matrix(mat, p)
    expect = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mat)
    assert p.read_bytes() == expect.encode()


def test_matrix_written_to_a_stream_matches_the_file(tmp_path):
    mat = np.array([[0.1, -0.0, 5e-324], [1 / 3, np.inf, -1e-300]])
    p = tmp_path / "m.txt"
    write_matrix(mat, p)
    stream = io.StringIO()
    write_matrix(mat, stream)
    # the stream is written to and left open
    assert not stream.closed
    assert stream.getvalue() == p.read_text()


def test_file_formats_as_documented(tmp_path):
    # the layouts of the "File formats" section of README.md
    mat = np.array([[1.5, -2.0, 0.1], [3.0, 1e-300, 7.0]])
    p = tmp_path / "m.txt"
    write_matrix(mat, p)
    assert p.read_text() == "1.5,-2.0,0.1\n3.0,1e-300,7.0\n"
    assert np.array_equal(read_matrix(p), mat)
    by_hand = tmp_path / "hand.txt"
    by_hand.write_text("1,2,3\n4,5,6\n")
    assert np.array_equal(read_matrix(by_hand), [[1, 2, 3], [4, 5, 6]])

    t = Tensor3.from_flat((2, 3, 2), np.arange(12.0) / 4)
    q = tmp_path / "t.txt"
    write_tensor(t, q)
    lines = q.read_text().splitlines()
    assert lines[0] == "2 3 2"
    first_index_fastest = [t.data[i, j, k] for k in range(2) for j in range(3) for i in range(2)]
    assert [float(v) for v in lines[1:]] == first_index_fastest
    assert np.array_equal(read_tensor(q).data, t.data)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("2 2\n1\n", "header"),
        ("a b c\n1\n", "bad header"),
        ("-1 -1 4\n1\n", "dimensions must be >= 1"),
        ("0 2 3\n", "dimensions must be >= 1"),
        ("1 1 2\n1.0\n", "expected 2 values"),
        ("1 1 1\nxyz\n", "non-numeric"),
    ],
)
def test_read_tensor_malformed(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_tensor(p)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("1.0,2.0\n3.0\n", "ragged"),
        ("1.0,oops\n", "non-numeric"),
    ],
)
def test_read_matrix_malformed(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        read_matrix(p)


@pytest.mark.parametrize(
    "content",
    [
        "1.5,-2.0,0.1\n3.0,1e-300,7.0\n",
        "1,2,3\n4,5,6\n",
        "1,2\n\n3,4\n",
        "1,2\r\n3,4\r\n",
        " 1.5,2\n3, 4 \n",
        "nan,-inf\n-0.0,inf\n",
        "1e500,1\n",
        "1_0,2\n",
        "1,2,\n3,4,\n",
        "1,2\n3\n",
        "1,2\n   \n3,4\n",
        "7\n8\n",
        "",
        "1.0,oops\n",
    ],
)
def test_read_matrix_agrees_with_the_line_parser(tmp_path, content):
    p = tmp_path / "m.txt"
    p.write_text(content)
    try:
        want = _read_matrix_lines(p)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_matrix(p)
        assert str(got.value) == str(exc)
        return
    got = read_matrix(p)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
