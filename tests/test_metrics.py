import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tenrec
from tenrec import NoiseSpec, SolverConfig, add_mixed_noise, decompose, ergas, gen_lowrank, psnr, ssim
from tenrec.metrics import SSIM_SIGMA, _filter, _gaussian_window, evaluate_all, rel_error

from oracles import loop_ergas, loop_psnr, loop_rel_error


class TestPsnr:
    def test_identical_inputs_infinite(self):
        x = np.random.default_rng(0).random((16, 16, 3))
        assert psnr(x, x) == float("inf")

    def test_unit_mse_at_reference_peak_255(self):
        # the peak is the reference's largest magnitude: 10*log10(255^2 / 1)
        ref = np.random.default_rng(0).integers(0, 256, (50, 50)).astype(float)
        ref[7, 3] = 255.0
        x = ref + 1.0
        assert psnr(x, ref) == pytest.approx(48.130803609, abs=1e-6)

    def test_offset_of_a_tenth_of_the_peak_20db(self):
        # the reference peaks at 10 in magnitude, at a negative entry
        ref = 10.0 * np.random.default_rng(1).random((20, 20, 4))
        ref[2, 5, 1] = -10.0
        x = ref + 1.0
        assert psnr(x, ref) == pytest.approx(20.0, abs=1e-9)

    def test_symmetric(self):
        # symmetric where the two arrays share their largest magnitude
        rng = np.random.default_rng(2)
        a, b = rng.random((12, 12, 2)), rng.random((12, 12, 2))
        a[0, 0, 0] = b[5, 7, 1] = 1.0
        assert psnr(a, b) == pytest.approx(psnr(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 3)), np.zeros((3, 4)))

    def test_one_way_input_rejected(self):
        with pytest.raises(ValueError, match="at least a 2-way array"):
            psnr(np.zeros(3), np.zeros(3))


class TestSsim:
    def test_identical_inputs_one(self):
        x = np.random.default_rng(3).random((24, 24, 2))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = rng.random((20, 20)), rng.random((20, 20))
            value = ssim(a, b)
            assert -1.0 <= value <= 1.0
            assert value < 1.0

    def test_symmetric(self):
        # symmetric where the two arrays share their largest magnitude
        rng = np.random.default_rng(5)
        a, b = rng.random((18, 18, 2)), rng.random((18, 18, 2))
        a[0, 0, 0] = b[9, 4, 1] = 1.0
        assert ssim(a, b) == pytest.approx(ssim(b, a))

    def test_small_slices_supported(self):
        rng = np.random.default_rng(6)
        a = rng.random((7, 7))
        assert ssim(a, a) == pytest.approx(1.0)

    def test_degrades_with_noise(self):
        rng = np.random.default_rng(7)
        ref = rng.random((32, 32))
        light = ssim(ref + 0.01 * rng.standard_normal(ref.shape), ref)
        heavy = ssim(ref + 0.3 * rng.standard_normal(ref.shape), ref)
        assert heavy < light < 1.0


def oracle_filter(x, size):
    """Valid-mode sum over every size x size window, weighted by the 2-D Gaussian."""
    t = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(t**2) / (2.0 * SSIM_SIGMA**2))
    window = np.outer(g, g) / np.outer(g, g).sum()
    n1, n2 = x.shape[0] - size + 1, x.shape[1] - size + 1
    out = np.zeros((n1, n2) + x.shape[2:])
    for a in range(size):
        for b in range(size):
            out += window[a, b] * x[a:a + n1, b:b + n2]
    return out


def oracle_ssim(x, ref, size, peak=1.0):
    x = x.reshape(x.shape[0], x.shape[1], -1)
    ref = ref.reshape(x.shape)
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    mu1, mu2 = oracle_filter(x, size), oracle_filter(ref, size)
    s11 = oracle_filter(x * x, size) - mu1**2
    s22 = oracle_filter(ref * ref, size) - mu2**2
    s12 = oracle_filter(x * ref, size) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1**2 + mu2**2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


# (shape, window): the window is 11 clipped to the smaller slice extent,
# and an even extent drops to the next odd size
SSIM_CASES = [((30, 30), 11), ((7, 7), 7), ((12, 9), 9), ((8, 10), 7), ((10, 9, 3, 2), 9)]


class TestSsimFilter:
    @pytest.mark.parametrize("shape, size", SSIM_CASES)
    def test_separable_filter_matches_window_sum(self, shape, size):
        x = np.random.default_rng(12).random(shape)
        bands = x.reshape(shape[0], shape[1], -1)
        got = _filter(bands, _gaussian_window(size, SSIM_SIGMA))
        want = oracle_filter(bands, size)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape, size", SSIM_CASES)
    def test_ssim_matches_window_sum(self, shape, size):
        rng = np.random.default_rng(13)
        ref = rng.random(shape)
        x = ref + 0.1 * rng.standard_normal(shape)
        want = oracle_ssim(x, ref, size, peak=np.max(np.abs(ref)))
        assert abs(ssim(x, ref) - want) <= 1e-12 * abs(want)


def test_import_and_evaluate_load_no_scipy():
    # a fresh interpreter, so modules loaded by other tests do not count
    package_root = str(Path(tenrec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import tenrec, tenrec.cli\n"
        "ref = np.random.default_rng(0).random((12, 12, 3)) + 0.1\n"
        "tenrec.evaluate_all(ref + 0.01, ref)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestErgas:
    def test_identical_inputs_zero(self):
        x = np.random.default_rng(8).random((10, 10, 5)) + 0.1
        assert ergas(x, x) == 0.0

    def test_single_band_value(self):
        ref = np.full((10, 10), 2.0)
        x = ref + 1.0
        # RMSE 1, band mean 2 -> 100 * sqrt((1/2)^2) = 50
        assert ergas(x, ref) == pytest.approx(50.0)

    def test_not_symmetric(self):
        rng = np.random.default_rng(10)
        ref = rng.random((8, 8)) + 0.5
        x = 2.0 * ref
        assert ergas(x, ref) != pytest.approx(ergas(ref, x))

    def test_zero_band_mean_rejected(self):
        with pytest.raises(ValueError):
            ergas(np.ones((4, 4)), np.zeros((4, 4)))


class TestRelError:
    def test_value(self):
        ref = np.random.default_rng(12).random((6, 5, 4, 3))
        assert rel_error(3.0 * ref, ref) == 2.0
        assert rel_error(ref, ref) == 0.0

    def test_zero_reference_is_floored(self):
        # the 1e-300 floor keeps a zero reference from dividing by zero
        assert rel_error(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0
        assert rel_error(np.ones((2, 2)), np.zeros((2, 2))) == 2.0 / 1e-300

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            rel_error(np.zeros((3, 3)), np.zeros((3, 4)))


def test_evaluate_all_keys():
    x = np.random.default_rng(11).random((12, 12, 2)) + 0.1
    out = evaluate_all(x, x)
    assert list(out) == ["rel_error", "psnr", "ssim", "ergas"]
    assert out["rel_error"] == 0.0
    assert out["psnr"] == float("inf")
    assert out["ssim"] == pytest.approx(1.0)
    assert out["ergas"] == 0.0


def test_evaluate_all_scores_at_the_reference_peak():
    # the peak is the reference's largest magnitude, here that of a negative entry
    rng = np.random.default_rng(14)
    ref = 20.0 * rng.random((12, 12, 2)) + 0.5
    ref[3, 4, 1] = -30.0
    x = ref + rng.standard_normal(ref.shape)
    out = evaluate_all(x, ref)
    want_psnr = np.mean(10.0 * np.log10(30.0**2 / np.mean((x - ref) ** 2, axis=(0, 1))))
    assert out["psnr"] == pytest.approx(want_psnr, rel=1e-13, abs=0)
    want_ssim = oracle_ssim(x, ref, 11, peak=30.0)
    assert abs(out["ssim"] - want_ssim) <= 1e-12 * abs(want_ssim)


def test_library_scores_are_the_cli_scores():
    # the A2 ground truth, which peaks at 21.06, plus noise of 0.01
    ref = gen_lowrank((30, 30, 10), 2, seed=7)
    assert np.max(np.abs(ref)) == pytest.approx(21.06, abs=5e-3)
    x = ref + 0.01 * np.random.default_rng(15).standard_normal(ref.shape)
    out = evaluate_all(x, ref)
    # about 20*log10(21.06 / 0.01) = 66.47 dB, not the 40 dB of a unit peak
    assert tenrec.psnr(x, ref) == out["psnr"] == pytest.approx(66.47, abs=0.1)
    # each score alone divides the pair as evaluate_all does once for all four
    for name, value in out.items():
        assert getattr(tenrec.metrics, name)(x, ref) == value, name


# at 1e307 a band's sum of the reference's entries overflows
@pytest.mark.parametrize("scale", [1e-200, 1e-5, 21.06, 1e300, 1e307])
def test_scores_do_not_depend_on_the_scale(scale):
    x, ref = scored_pair((12, 12, 3), 16)
    want = evaluate_all(x, ref)
    got = evaluate_all(scale * x, scale * ref)
    assert all(np.isfinite(v) for v in got.values())
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key


@pytest.mark.parametrize("score", [rel_error, psnr, ssim, ergas, evaluate_all])
def test_recovery_far_larger_than_its_reference_raises(score):
    # the unit-peak difference, about 1e300, overflows when squared
    x, ref = (gen_lowrank((8, 8, 4), 2, seed) for seed in (1, 0))
    x, ref = x / np.max(np.abs(x)) * 1e290, ref / np.max(np.abs(ref)) * 1e-10
    with pytest.raises(FloatingPointError):
        score(x, ref)


def tiny_mean_pair(peak):
    """An 8 x 8 x 2 pair whose first reference band holds ``peak``, ``-peak``
    and ``6.4e-168``, a mean of 1e-169, and the recovery 0.01 * peak above it."""
    ref = np.full((8, 8, 2), peak)
    ref[:, :, 0] = 0.0
    ref[0, :3, 0] = peak, -peak, 6.4e-168
    return ref + 0.01 * peak, ref


# At peak 1 the first band's ratio of RMSE to mean, 1e167, overflows when
# squared; at peak 1e300 the mean underflows to zero at unit peak.
@pytest.mark.parametrize("peak", [1.0, 1e300])
@pytest.mark.parametrize("score", [ergas, evaluate_all])
def test_band_mean_far_below_the_peak_raises(score, peak):
    with pytest.raises(FloatingPointError):
        score(*tiny_mean_pair(peak))


def scored_pair(shape, seed):
    rng = np.random.default_rng(seed)
    ref = rng.random(shape) + 0.1
    return ref + 0.05 * rng.standard_normal(shape), ref


def one_exact_band(shape, seed):
    x, ref = scored_pair(shape, seed)
    x[:, :, 3] = ref[:, :, 3]
    return x, ref


class TestBandReduction:
    """The scores reduce each band's squared error once; the band loops of
    ``oracles`` are their references."""

    @pytest.mark.parametrize("x, ref", [scored_pair((30, 30, 20), 20),
                                        scored_pair((20, 20, 6, 3), 21),
                                        one_exact_band((30, 30, 20), 22)])
    def test_scores_match_band_loops(self, x, ref):
        assert rel_error(x, ref) == pytest.approx(loop_rel_error(x, ref), rel=1e-13, abs=0)
        assert psnr(x, ref) == pytest.approx(loop_psnr(x, ref), rel=1e-13, abs=0)
        assert ergas(x, ref) == pytest.approx(loop_ergas(x, ref), rel=1e-13, abs=0)

    def test_one_exact_band_gives_infinite_psnr(self):
        x, ref = one_exact_band((30, 30, 20), 22)
        assert psnr(x, ref) == float("inf")
        assert rel_error(x, ref) > 0.0 and ergas(x, ref) > 0.0

    def test_ergas_names_first_zero_mean_band(self):
        x, ref = scored_pair((8, 8, 6), 23)
        ref[:4, :, [2, 4]] = 1.0
        ref[4:, :, [2, 4]] = -1.0
        with pytest.raises(ValueError, match=r"^reference band 2 has zero mean; ERGAS undefined$"):
            ergas(x, ref)


class TestNoBlasDot:
    def test_guard_catches_a_whole_array_norm(self, no_whole_array_dot):
        big = np.ones(no_whole_array_dot + 1)
        for reduce in (np.linalg.norm, lambda a: np.dot(a, a), lambda a: np.vecdot(a, a)):
            with pytest.raises(AssertionError, match="reduced a whole array"):
                reduce(big)
        assert np.linalg.norm(big.reshape(-1, 1), axis=0).shape == (1,)

    def test_evaluate_all(self, no_whole_array_dot):
        x, ref = scored_pair((30, 30, 20), 24)
        assert list(evaluate_all(x, ref)) == ["rel_error", "psnr", "ssim", "ergas"]

    def test_robust_pca_trace(self, no_whole_array_dot):
        l_true = gen_lowrank((30, 30, 20), 2, seed=25)
        observed = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.1, gaussian_sigma=0.05,
                                                     seed=25))
        report = decompose(observed, SolverConfig(beta=(1.0, 0.0, 0.0), max_iter=3))
        assert report.iterations == 3
        assert {"N_fro", "residual_fro"} <= set(report.trace[-1])
