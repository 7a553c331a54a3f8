import numpy as np
import pytest

from tenrec import fold_mode_pair, mode_pairs, t_product, unfold_mode_pair
from tenrec.algebra import fourier_singular_values

from oracles import (
    conj_transpose,
    dft_mode3,
    identity_tensor,
    idft_mode3,
    mirror_columns,
    multi_rank,
    n_tubal_rank,
    t_svd,
    tnn,
    tubal_rank,
)


def oracle_unfold(t, k1, k2):
    """Literal transcription of the unfolding index formula."""
    shape = t.shape
    rest = [m for m in range(t.ndim) if m not in (k1, k2)]
    out = np.zeros((shape[k1], shape[k2], int(np.prod([shape[m] for m in rest], initial=1))))
    for idx in np.ndindex(*shape):
        j = 0
        stride = 1
        for m in rest:
            j += idx[m] * stride
            stride *= shape[m]
        out[idx[k1], idx[k2], j] = t[idx]
    return out


def bcirc(a):
    """Materialized block-circulant matrix of a 3-way array."""
    i1, i2, i3 = a.shape
    out = np.zeros((i1 * i3, i2 * i3))
    for r in range(i3):
        for c in range(i3):
            out[r * i1 : (r + 1) * i1, c * i2 : (c + 1) * i2] = a[:, :, (r - c) % i3]
    return out


def oracle_t_product(a, b):
    """Spatial-domain product: unfold b into a block vector, multiply, refold."""
    i1, i2, i3 = a.shape
    j = b.shape[1]
    bvec = b.transpose(2, 0, 1).reshape(i2 * i3, j)
    cvec = bcirc(a) @ bvec
    return cvec.reshape(i3, i1, j).transpose(1, 2, 0)


def oracle_dft(z):
    """Direct O(I3^2) DFT summation along tubes."""
    i3 = z.shape[2]
    out = np.zeros(z.shape, dtype=complex)
    for k in range(i3):
        for j in range(i3):
            out[:, :, k] += z[:, :, j] * np.exp(-2j * np.pi * j * k / i3)
    return out


class TestUnfoldFold:
    def test_pair_12_is_identity_for_3way(self):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        assert np.array_equal(unfold_mode_pair(t, 0, 1), t)

    def test_pair_12_of_3way_is_read_only_view(self):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        u = unfold_mode_pair(t, 0, 1)
        assert np.shares_memory(u, t) and np.array_equal(u, t)
        assert not u.flags.writeable and t.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0, 0] = 1.0
        f = fold_mode_pair(u, 0, 1, t.shape)
        assert np.shares_memory(f, t) and np.array_equal(f, t) and not f.flags.writeable
        # every pair that moves data is a fresh, writeable copy
        for shape in [(3, 4, 5), (3, 4, 5, 2)]:
            t = np.random.default_rng(1).standard_normal(shape)
            for m1, m2 in mode_pairs(len(shape)):
                if (m1, m2) == (0, 1) and len(shape) == 3:
                    continue
                u = unfold_mode_pair(t, m1, m2)
                f = fold_mode_pair(u, m1, m2, shape)
                assert not np.shares_memory(u, t) and u.flags.writeable
                assert not np.shares_memory(f, u) and f.flags.writeable

    def test_documented_index_example(self):
        # shape (2,3,4,5), modes (0,2): element [0,1,0,1] lands at [0,0,4]
        t = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
        u = unfold_mode_pair(t, 0, 2)
        assert u.shape == (2, 4, 15)
        assert u[0, 0, 4] == t[0, 1, 0, 1]

    @pytest.mark.parametrize("shape", [(2, 3, 4), (4, 5, 3, 2), (2, 2, 2, 2)])
    def test_matches_enumeration_oracle(self, shape):
        t = np.random.default_rng(2).standard_normal(shape)
        for m1, m2 in mode_pairs(len(shape)):
            assert np.array_equal(unfold_mode_pair(t, m1, m2), oracle_unfold(t, m1, m2))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (4, 5, 3, 2), (1, 3, 1, 2), (2, 2)])
    def test_fold_unfold_roundtrip_exact(self, shape):
        t = np.random.default_rng(3).standard_normal(shape)
        for m1, m2 in mode_pairs(len(shape)):
            u = unfold_mode_pair(t, m1, m2)
            assert np.array_equal(fold_mode_pair(u, m1, m2, shape), t)

    def test_fold_zero(self):
        z = fold_mode_pair(np.zeros((2, 4, 15)), 0, 2, (2, 3, 4, 5))
        assert z.shape == (2, 3, 4, 5)
        assert not z.any()

    def test_bad_pair_rejected(self):
        t = np.zeros((2, 3, 4))
        with pytest.raises(ValueError):
            unfold_mode_pair(t, 1, 1)
        with pytest.raises(ValueError):
            unfold_mode_pair(t, 0, 3)
        with pytest.raises(ValueError):
            unfold_mode_pair(t, 2, 0)

    def test_fold_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold_mode_pair(np.zeros((2, 4, 14)), 0, 2, (2, 3, 4, 5))


class TestDft:
    def test_length_one_tube_is_identity(self):
        z = np.random.default_rng(4).standard_normal((3, 2, 1))
        assert np.allclose(dft_mode3(z), z)

    def test_constant_tube_concentrates_in_dc(self):
        z = np.tile(np.random.default_rng(5).standard_normal((2, 2, 1)), (1, 1, 6))
        zbar = dft_mode3(z)
        assert np.allclose(zbar[:, :, 0], 6 * z[:, :, 0])
        assert np.allclose(zbar[:, :, 1:], 0)

    def test_matches_direct_summation(self):
        z = np.random.default_rng(6).standard_normal((3, 4, 7))
        assert np.allclose(dft_mode3(z), oracle_dft(z), atol=1e-10)

    def test_roundtrip_within_1e12(self):
        z = np.random.default_rng(7).standard_normal((4, 3, 6))
        back = idft_mode3(dft_mode3(z))
        assert np.linalg.norm(back - z) <= 1e-12 * np.linalg.norm(z)
        assert np.max(np.abs(back.imag)) <= 1e-10

    def test_conjugate_symmetry_of_real_input(self):
        z = np.random.default_rng(8).standard_normal((2, 3, 8))
        zbar = dft_mode3(z)
        for i in range(1, 8):
            assert np.allclose(zbar[:, :, i], zbar[:, :, 8 - i].conj())


class TestTProduct:
    def test_identity_neutral(self):
        a = np.random.default_rng(9).standard_normal((3, 4, 5))
        assert np.allclose(t_product(a, identity_tensor(4, 5)), a, atol=1e-12)
        assert np.allclose(t_product(identity_tensor(3, 5), a), a, atol=1e-12)

    def test_single_tube_is_matrix_product(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 4, 1))
        b = rng.standard_normal((4, 2, 1))
        c = t_product(a, b)
        assert np.allclose(c[:, :, 0], a[:, :, 0] @ b[:, :, 0])

    def test_matches_bcirc_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            i1, i2, j, i3 = rng.integers(1, 7, size=4)
            a = rng.standard_normal((i1, i2, i3))
            b = rng.standard_normal((i2, j, i3))
            c = t_product(a, b)
            ref = oracle_t_product(a, b)
            assert np.linalg.norm(c - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            t_product(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            t_product(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))
        with pytest.raises(ValueError, match="a must be a 3-way array"):
            t_product(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_complex_input_gives_complex_result(self):
        # the product is linear in a, so a complex a splits into two real products
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((4, 2, 5))
        c = t_product(a, b)
        assert np.iscomplexobj(c)
        ref = t_product(a.real, b) + 1j * t_product(a.imag, b)
        assert np.allclose(c, ref, atol=1e-12)
        assert np.abs(c.imag).max() > 0.1


class TestConjTranspose:
    def test_involution(self):
        a = np.random.default_rng(12).standard_normal((3, 5, 4))
        assert np.array_equal(conj_transpose(conj_transpose(a)), a)

    def test_single_tube_is_transpose(self):
        a = np.random.default_rng(13).standard_normal((3, 5, 1))
        assert np.array_equal(conj_transpose(a)[:, :, 0], a[:, :, 0].T)

    def test_product_reversal(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((4, 2, 5))
        lhs = conj_transpose(t_product(a, b))
        rhs = t_product(conj_transpose(b), conj_transpose(a))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestTsvd:
    def test_zero_tensor(self):
        fac = t_svd(np.zeros((3, 4, 5)))
        assert not fac.s.any()
        assert np.allclose(fac.compose(), 0)

    # Even I3 has a Nyquist slice, odd I3 has none, and I3 = 1 is the DC
    # slice alone; the real inverse FFT treats each differently.
    @pytest.mark.parametrize("i3", [4, 5, 1])
    def test_reconstruction_and_orthogonality(self, i3):
        z = np.random.default_rng(15).standard_normal((6, 5, i3))
        fac = t_svd(z)
        rec = fac.compose()
        assert np.linalg.norm(rec - z) <= 1e-10 * max(np.linalg.norm(z), 1.0)
        eye_u = identity_tensor(6, i3)
        eye_v = identity_tensor(5, i3)
        assert np.linalg.norm(t_product(conj_transpose(fac.u), fac.u) - eye_u) <= 1e-8
        assert np.linalg.norm(t_product(conj_transpose(fac.v), fac.v) - eye_v) <= 1e-8

    @pytest.mark.parametrize("i3", [6, 5, 1])
    def test_fourier_slices_nonincreasing(self, i3):
        z = np.random.default_rng(16).standard_normal((5, 5, i3))
        sigma = fourier_singular_values(z)
        assert sigma.shape == (5, i3 // 2 + 1)
        assert np.all(np.diff(sigma, axis=0) <= 1e-12)
        # column-wise oracle: every Fourier slice factored on its own, and
        # each mirror slice has its half-spectrum column's values
        zbar = dft_mode3(z)
        ref = [np.linalg.svd(zbar[:, :, i], compute_uv=False) for i in range(i3)]
        assert np.allclose(mirror_columns(sigma, i3), np.array(ref).T, rtol=1e-12, atol=1e-12)

    def test_rank_one_construction(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal((6, 1, 4))
        v = rng.standard_normal((1, 5, 4))
        z = t_product(u, v)
        assert tubal_rank(z) == 1
        assert np.all(multi_rank(z) == 1)

    def test_nonfinite_rejected(self):
        z = np.zeros((2, 2, 2))
        z[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            t_svd(z)


class TestRanks:
    def test_zero_tensor_ranks(self):
        z = np.zeros((4, 3, 5))
        assert tubal_rank(z) == 0
        assert np.all(multi_rank(z) == 0)

    def test_identity_tensor_full_rank(self):
        assert tubal_rank(identity_tensor(4, 5)) == 4

    def test_constructed_rank_two(self):
        rng = np.random.default_rng(18)
        z = t_product(rng.standard_normal((6, 2, 5)), rng.standard_normal((2, 7, 5)))
        assert tubal_rank(z) == 2
        # slicewise matrix-rank oracle in the Fourier domain
        zbar = dft_mode3(z)
        ranks = [np.linalg.matrix_rank(zbar[:, :, i], tol=1e-8) for i in range(5)]
        assert np.array_equal(multi_rank(z), ranks)

    def test_multi_rank_matches_matrix_rank_oracle(self):
        z = np.random.default_rng(19).standard_normal((4, 6, 3))
        zbar = dft_mode3(z)
        ranks = [np.linalg.matrix_rank(zbar[:, :, i]) for i in range(3)]
        assert np.array_equal(multi_rank(z), ranks)


class TestTnnAndNTubalRank:
    def test_tnn_zero(self):
        assert tnn(np.zeros((3, 4, 2))) == 0.0

    def test_tnn_single_tube_is_nuclear_norm(self):
        a = np.random.default_rng(20).standard_normal((5, 4, 1))
        ref = np.linalg.svd(a[:, :, 0], compute_uv=False).sum()
        assert np.isclose(tnn(a), ref)

    def test_tnn_unitary_invariance(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((4, 4, 3))
        u = t_svd(rng.standard_normal((4, 4, 3))).u
        v = t_svd(rng.standard_normal((4, 4, 3))).v
        rotated = t_product(t_product(u, z), v)
        assert np.isclose(tnn(rotated), tnn(z), rtol=1e-8)

    def test_n_tubal_rank_pair_order_and_length(self):
        t = np.random.default_rng(22).standard_normal((4, 5, 3, 2))
        ranks = n_tubal_rank(t)
        assert len(ranks) == 6
        expected = [
            tubal_rank(unfold_mode_pair(t, m1, m2)) for m1, m2 in
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        ]
        assert ranks == expected
