import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charspec.errors import DimensionError, SingularMatrixError
from charspec.linop import (
    BlockMatrix,
    block_invert,
    determinant,
    inverse,
    kernel_basis,
    lu_decompose,
    schur_complement_1,
    schur_complement_2,
    solve,
    transfer_inverse_qr,
)


def test_lu_reconstructs_permuted_matrix():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fac = lu_decompose(a)
        assert_allclose(fac.lower @ fac.upper, a[fac.perm], atol=1e-12)


def test_lu_pivot_ties_in_one_norm():
    # LAPACK picks the pivot by |Re| + |Im|, not by modulus: in the first
    # column 1+1j and 2 tie under that measure although |2| > |1+1j|, so a
    # multiplier of modulus above 1 may land in L; the row bookkeeping
    # must hold either way
    a = np.array([
        [1.0 + 1.0j, 2.0, 0.5],
        [2.0, 1.0 - 1.0j, 3.0j],
        [-1.0j, 2.0 - 2.0j, 1.0],
    ])
    fac = lu_decompose(a)
    assert_allclose(fac.lower @ fac.upper, a[fac.perm], atol=1e-14)
    assert_allclose(determinant(fac), np.linalg.det(a), rtol=1e-13)


def test_lu_never_raises_on_singular():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = lu_decompose(np.ones((3, 3)))
    assert fac.is_singular()
    assert fac.smallest_pivot < 1e-14


def test_determinant_hand_values():
    # 2x2 by cofactors: 2*1 - 1*1 = 1
    assert_allclose(determinant([[2.0, 1.0], [1.0, 1.0]]), 1.0 + 0j, atol=1e-14)
    # swap matrix: parity -1
    assert_allclose(determinant([[0.0, 1.0], [1.0, 0.0]]), -1.0 + 0j, atol=1e-14)
    # (1+i)(4-i) - 6 = -1 + 3i
    assert_allclose(
        determinant([[1 + 1j, 2.0], [3.0, 4 - 1j]]), -1 + 3j, atol=1e-13
    )
    assert determinant(np.zeros((0, 0))) == 1.0 + 0j


def permutation_sign(perm):
    # (-1)^(n - cycles): a cycle of length k is k - 1 transpositions
    seen = np.zeros(len(perm), dtype=bool)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def test_determinant_of_permutation_matrices():
    rng = np.random.default_rng(3)
    signs = set()
    for n in (2, 3, 5, 8, 17, 33, 64):
        for _ in range(4):
            perm = rng.permutation(n)
            sign = permutation_sign(perm)
            signs.add(sign)
            assert determinant(np.eye(n)[perm]) == sign
    assert signs == {-1, 1}


def test_determinant_matches_numpy_on_random():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7, 12):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert_allclose(determinant(a), np.linalg.det(a), rtol=1e-10)


def test_determinant_extreme_magnitudes():
    # 3^500 ~ 3.6e238 would overflow a naive running product of minors
    # at larger sizes; the mantissa/exponent form must survive this one
    d = determinant(np.diag(np.full(500, 3.0)))
    assert_allclose(abs(d), np.exp(500 * np.log(3.0)), rtol=1e-9)
    assert determinant(np.diag(np.full(1100, 2.0))).real == np.inf
    assert determinant(np.diag(np.full(1200, 0.5))) == 0j


def test_solve_hand_value():
    x = solve([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    assert_allclose(x, [1.0, 3.0], atol=1e-13)


def test_solve_matrix_rhs_and_inverse_agree():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 3))
    x = solve(a, b)
    assert_allclose(a @ x, b, atol=1e-11)
    assert_allclose(inverse(a) @ a, np.eye(6), atol=1e-11)


def test_solve_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as info:
        solve(np.ones((3, 3)), np.ones(3))
    assert info.value.smallest_pivot < 1e-14


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        solve(np.eye(3), np.ones(4))


def test_kernel_basis_rank_one_deficiency():
    vecs = kernel_basis([[1.0, 1.0], [1.0, 1.0]])
    assert len(vecs) == 1
    v = vecs[0]
    assert_allclose(np.array([[1.0, 1.0], [1.0, 1.0]]) @ v, 0, atol=1e-12)
    assert np.max(np.abs(v)) == pytest.approx(1.0)


def test_kernel_basis_full_rank_is_empty():
    assert kernel_basis(np.eye(4) + 0.1) == []


def test_kernel_basis_constructed_rank():
    rng = np.random.default_rng(5)
    n, r = 7, 3
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    c = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    a = b @ c
    vecs = kernel_basis(a)
    assert len(vecs) == n - r
    for v in vecs:
        assert_allclose(a @ v, 0, atol=1e-10 * np.max(np.abs(a)))


def test_kernel_basis_scale_anchor():
    # a 1x1 residual of a root has no internal scale; the anchor decides
    assert kernel_basis([[1e-16]]) == []
    vecs = kernel_basis([[1e-16]], rtol=1e-6, scale=1.0)
    assert len(vecs) == 1 and vecs[0][0] == 1.0


def test_schur_complements_scalar_blocks():
    blocks = BlockMatrix(P=[[2.0]], Q=[[1.0]], R=[[1.0]], S=[[1.0]])
    assert_allclose(schur_complement_1(blocks), [[1.0]], atol=1e-14)
    assert_allclose(schur_complement_2(blocks), [[0.5]], atol=1e-14)


def test_block_invert_hand_value():
    blocks = BlockMatrix(P=[[2.0]], Q=[[1.0]], R=[[1.0]], S=[[1.0]])
    assert_allclose(block_invert(blocks), [[1.0, -1.0], [-1.0, 2.0]], atol=1e-13)


def test_block_invert_falls_back_when_s_is_singular():
    blocks = BlockMatrix(P=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
    assert_allclose(block_invert(blocks), [[0.0, 1.0], [1.0, -1.0]], atol=1e-13)


def test_block_invert_random_blocks():
    rng = np.random.default_rng(31)
    for p, s in ((2, 3), (4, 1), (3, 3)):
        blocks = BlockMatrix(
            P=rng.standard_normal((p, p)) + np.eye(p) * 3,
            Q=rng.standard_normal((p, s)),
            R=rng.standard_normal((s, p)),
            S=rng.standard_normal((s, s)) + np.eye(s) * 3,
        )
        got = block_invert(blocks)
        assert_allclose(got @ blocks.assemble(), np.eye(p + s), atol=1e-10)


def test_block_shapes_must_conform():
    with pytest.raises(DimensionError):
        BlockMatrix(P=np.eye(2), Q=np.ones((2, 2)), R=np.ones((1, 2)), S=np.eye(1))


def test_transfer_inverse_qr_scalar():
    # Id - QR = 1 - 0.25, so the inverse is 4/3
    inv_rq = [[1.0 / 0.75]]
    got = transfer_inverse_qr([[0.5]], [[0.5]], inv_rq)
    assert_allclose(got, [[4.0 / 3.0]], atol=1e-14)


def test_transfer_inverse_qr_rectangular():
    rng = np.random.default_rng(43)
    q = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    r = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    inv_rq = inverse(np.eye(2) - r @ q)
    got = transfer_inverse_qr(q, r, inv_rq)
    assert_allclose((np.eye(5) - q @ r) @ got, np.eye(5), atol=1e-10)


def test_transfer_det_identity_both_sides():
    # det(Id_E - t QR) = det(Id_F - t RQ) for rectangular Q, R
    rng = np.random.default_rng(47)
    q = rng.standard_normal((6, 2))
    r = rng.standard_normal((2, 6))
    for t in np.linspace(-2.0, 2.0, 9):
        big = determinant(np.eye(6) - t * (q @ r))
        small = determinant(np.eye(2) - t * (r @ q))
        assert_allclose(big, small, rtol=1e-9, atol=1e-12)
