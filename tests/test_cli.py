import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tenrec
import tenrec.completion
from tenrec import (NoiseSpec, SolverConfig, add_mixed_noise, complete, gen_lowrank, gen_mask,
                    load_tensor, save_tensor)
from tenrec.cli import _resolve_config, build_parser, main
from tenrec.metrics import evaluate_all

from oracles import tubal_rank
from test_acceptance import lrtc_config, lrtc_instance
from test_metrics import tiny_mean_pair


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# the header of every metrics.csv: two labels, then evaluate_all's keys
METRICS_HEADER = ["method", "sr_or_noise", "rel_error", "psnr", "ssim", "ergas"]


class TestSynth:
    def test_writes_tensor_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "gt.tns"
        code = main(["synth", "--shape", "30,30,20", "--rank", "3", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        t = load_tensor(out)
        assert t.shape == (30, 30, 20)
        assert tubal_rank(t) <= 3
        manifest = json.loads((tmp_path / "gt.tns.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 42

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.tns", tmp_path / "b.tns"
        for out in (a, b):
            assert main(["synth", "--shape", "8,7,5", "--rank", "2", "--seed", "9",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("peak", [1.0, 21.06])
    def test_peak_is_met_exactly(self, tmp_path, peak):
        # the library's rescaling of the same tensor, bit for bit
        out = tmp_path / "gt.tns"
        assert main(["synth", "--shape", "30,30,20", "--rank", "3", "--seed", "42",
                     "--peak", str(peak), "--out", str(out)]) == 0
        t = gen_lowrank((30, 30, 20), 3, 42)
        got = load_tensor(out)
        assert np.array_equal(got, t / np.max(np.abs(t)) * peak)
        assert np.max(np.abs(got)) == peak

    def test_missing_shape_usage_error(self, tmp_path):
        assert main(["synth", "--rank", "3", "--out", str(tmp_path / "x.tns")]) == 2

    def test_bad_shape_rejected(self, tmp_path):
        assert main(["synth", "--shape", "8,7", "--rank", "2",
                     "--out", str(tmp_path / "x.tns")]) == 2


def make_instance(tmp_path, shape=(12, 12, 6), rank=2, seed=5):
    gt = gen_lowrank(shape, rank, seed)
    gt = gt / np.max(np.abs(gt))
    path = tmp_path / "gt.tns"
    save_tensor(path, gt)
    return gt, path


COMPLETE_FLAGS = ["--beta", "1,0,0", "--mu0", "5.0", "--rho0", "1e-3",
                  "--gamma", "1e4", "--epsilon", "0.01", "--max-iter", "300"]


class TestComplete:
    def test_full_sampling_returns_input(self, tmp_path, capsys):
        gt, path = make_instance(tmp_path)
        out = tmp_path / "run"
        code = main(["complete", str(path), "--sr", "1.0", "--seed", "1",
                     "--out", str(out)] + COMPLETE_FLAGS)
        assert code == 0
        assert np.allclose(load_tensor(out / "recovered.tns"), gt, atol=1e-12)
        rows = read_csv(out / "metrics.csv")
        assert rows[0]["psnr"] == "inf"
        assert list(rows[0]) == METRICS_HEADER

    def test_recovery_and_outputs(self, tmp_path, capsys):
        gt, path = make_instance(tmp_path)
        out = tmp_path / "run"
        code = main(["complete", str(path), "--sr", "0.5", "--seed", "5",
                     "--out", str(out)] + COMPLETE_FLAGS)
        assert code == 0
        rec = load_tensor(out / "recovered.tns")
        assert np.linalg.norm(rec - gt) / np.linalg.norm(gt) <= 1e-2
        trace = read_csv(out / "trace.csv")
        assert list(trace[0]) == ["iter", "inf_norm_diff", "lagrangian", "seconds"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mu0"] == 5.0
        assert manifest["observation"] == {"sr": 0.5}

    def test_mask_file_recovery_scored_against_gt(self, tmp_path, capsys):
        # the mask that --sr 0.5 --seed 5 draws, read from a file
        gt, path = make_instance(tmp_path)
        mask = tmp_path / "mask.tns"
        save_tensor(mask, gen_mask(gt.shape, 0.5, 5).mask.astype(float))
        out = tmp_path / "run"
        code = main(["complete", str(path), "--mask", str(mask), "--gt", str(path),
                     "--out", str(out)] + COMPLETE_FLAGS)
        assert code == 0
        rec = load_tensor(out / "recovered.tns")
        assert np.linalg.norm(rec - gt) / np.linalg.norm(gt) <= 1e-2
        assert read_csv(out / "metrics.csv")[0]["sr_or_noise"] == "mask-file"
        assert capsys.readouterr().out.startswith("completed: rel_error=")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["mask"] == str(mask)
        assert manifest["observation"] == {"mask": str(mask)}

    def test_mask_file_shape_mismatch(self, tmp_path, capsys):
        gt, path = make_instance(tmp_path)
        bad_mask = tmp_path / "mask.tns"
        save_tensor(bad_mask, np.ones((3, 3, 3)))
        code = main(["complete", str(path), "--mask", str(bad_mask),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_requires_sr_or_mask(self, tmp_path, capsys):
        gt, path = make_instance(tmp_path)
        assert main(["complete", str(path), "--out", str(tmp_path / "run")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].endswith(
            "one of the arguments --sr --mask is required")

    def test_config_file_precedence(self, tmp_path, capsys):
        gt, path = make_instance(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mu0 = 5.0\nbeta = 1,0,0\nmax_iter = 300\n")
        out = tmp_path / "run"
        code = main(["complete", str(path), "--sr", "0.5", "--seed", "5",
                     "--config", str(cfgfile), "--gamma", "1e4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mu0"] == 5.0
        assert manifest["config"]["gamma"] == 1e4


# the command's own input flags: a sampling rate, or synthetic noise
SOLVE_INPUT = {"complete": ["--sr", "0.5"], "denoise": ["--sp-fraction", "0.05"]}


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_max_iter_zero_warns_and_returns_initialization(tmp_path, capsys, command):
    gt, path = make_instance(tmp_path)
    out = tmp_path / "run"
    code = main([command, str(path), "--seed", "5", "--out", str(out), "--max-iter", "0"]
                + SOLVE_INPUT[command])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["warning"]
    if command == "complete":
        rec = load_tensor(out / "recovered.tns")
        assert set(np.round(rec[rec != gt], 12).ravel()) <= {0.0}
    else:  # the noisy data, with empty sparse and Gaussian parts
        noisy = add_mixed_noise(gt, NoiseSpec(sp_fraction=0.05, seed=5))
        assert np.array_equal(load_tensor(out / "L.tns"), noisy)
        assert not load_tensor(out / "E.tns").any()
        assert not load_tensor(out / "N.tns").any()


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_nonconvergence_exit_code(tmp_path, capsys, command):
    gt, path = make_instance(tmp_path)
    out = tmp_path / "run"
    code = main([command, str(path), "--seed", "5", "--out", str(out), "--max-iter", "2",
                 "--tol", "1e-300"] + SOLVE_INPUT[command] + COMPLETE_FLAGS[:-2])
    assert code == 3
    assert len(read_csv(out / "trace.csv")) == 2
    assert "did not reach tol" in json.loads(capsys.readouterr().err)["warning"]


class TestDenoise:
    def test_clean_lowrank_keeps_sparse_part_empty(self, tmp_path, capsys):
        t = gen_lowrank((20, 20, 6), 2, seed=11)
        path = tmp_path / "t.tns"
        save_tensor(path, t)
        out = tmp_path / "run"
        code = main(["denoise", str(path), "--out", str(out), "--beta", "1,0,0",
                     "--mu0", "2e-3", "--rho0", "2.3e-6", "--growth", "1.08",
                     "--epsilon", "0.21", "--penalty-tau", "6e-5",
                     "--tau1-scale", "0.3", "--tol", "2e-4", "--gt", str(path)])
        assert code == 0
        e = load_tensor(out / "E.tns")
        assert np.sum(np.abs(e)) / e.size <= 1e-4
        trace = read_csv(out / "trace.csv")
        assert list(trace[0]) == [
            "iter", "inf_norm_diff", "lagrangian", "seconds", "E_l1", "N_fro", "residual_fro",
        ]

    def test_synthetic_noise_metrics_row(self, tmp_path, capsys):
        t = gen_lowrank((15, 15, 5), 2, seed=3)
        t = (t - t.min()) / (t.max() - t.min())
        path = tmp_path / "t.tns"
        save_tensor(path, t)
        out = tmp_path / "run"
        code = main(["denoise", str(path), "--sp-fraction", "0.05",
                     "--gaussian-sigma", "0.2", "--seed", "7", "--out", str(out),
                     "--max-iter", "40", "--tol", "1e-300"])
        assert code in (0, 3)
        rows = read_csv(out / "metrics.csv")
        assert rows[0]["method"] == "emlcp-rpca"
        assert rows[0]["sr_or_noise"] == "sp=0.05 nu=0.2"
        assert list(rows[0]) == METRICS_HEADER
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observation"] == {
            "sp_fraction": 0.05, "gaussian_sigma": 0.2, "noniid": None, "seed": 7}

    def test_noniid_noise_metrics_row(self, tmp_path, capsys):
        t = gen_lowrank((15, 15, 5), 2, seed=3)
        t = (t - t.min()) / (t.max() - t.min())
        path = tmp_path / "t.tns"
        save_tensor(path, t)
        out = tmp_path / "run"
        code = main(["denoise", str(path), "--noniid", "0.02,0.08", "--gaussian-sigma", "0.2",
                     "--seed", "7", "--out", str(out), "--max-iter", "40", "--tol", "1e-300"])
        assert code in (0, 3)
        assert read_csv(out / "metrics.csv")[0]["sr_or_noise"] == "sp~U(0.02,0.08) nu=0.2"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observation"] == {
            "sp_fraction": 0.0, "gaussian_sigma": 0.2, "noniid": [0.02, 0.08], "seed": 7}

    @pytest.mark.parametrize("flags", [["--sp-fraction", "1.5"], ["--gaussian-sigma", "-0.1"],
                                       ["--gaussian-sigma", "nan"], ["--gaussian-sigma", "inf"]])
    def test_invalid_noise_flags(self, tmp_path, capsys, flags):
        t = gen_lowrank((8, 8, 4), 2, seed=2)
        path = tmp_path / "t.tns"
        save_tensor(path, t)
        code = main(["denoise", str(path), "--out", str(tmp_path / "run")] + flags)
        assert code == 2


class TestEval:
    def test_identical_files_inf_row(self, tmp_path, capsys):
        t = np.random.default_rng(0).random((10, 10, 3))
        a = tmp_path / "a.tns"
        save_tensor(a, t)
        out = tmp_path / "m"
        code = main(["eval", str(a), str(a), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "0.0,inf,1.0,0.0\n"
        rows = read_csv(out / "metrics.csv")
        assert list(rows[0]) == METRICS_HEADER
        assert rows[0]["psnr"] == "inf"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {}

    def test_known_offset_20db(self, tmp_path, capsys):
        # the peak is the reference's largest magnitude, exactly 1 here
        rng = np.random.default_rng(1)
        ref = rng.random((10, 10, 3))
        ref = ref / ref.max()
        a, b = tmp_path / "a.tns", tmp_path / "b.tns"
        save_tensor(a, ref + 0.1)
        save_tensor(b, ref)
        code = main(["eval", str(a), str(b)])
        assert code == 0
        psnr_text = capsys.readouterr().out.split(",")[1]
        assert float(psnr_text) == pytest.approx(20.0, abs=1e-9)

    def test_shape_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.tns", tmp_path / "b.tns"
        save_tensor(a, np.zeros((3, 3)))
        save_tensor(b, np.zeros((4, 3)))
        assert main(["eval", str(a), str(b)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "shapes differ: (3, 3) vs (4, 3)"}

    def test_repeats_the_row_of_a_run_off_unit_peak(self, tmp_path, capsys):
        # denoise and eval score at the same peak, the ground truth's largest magnitude
        t = gen_lowrank((12, 12, 6), 2, seed=5)
        assert np.max(np.abs(t)) > 2.0
        path = tmp_path / "t.tns"
        save_tensor(path, t)
        out = tmp_path / "run"
        code = main(["denoise", str(path), "--sp-fraction", "0.05", "--gaussian-sigma", "0.02",
                     "--seed", "9", "--max-iter", "20", "--tol", "1e-300", "--out", str(out)])
        assert code in (0, 3)
        row = read_csv(out / "metrics.csv")[0]
        assert float(row["rel_error"]) == evaluate_all(load_tensor(out / "L.tns"), t)["rel_error"]
        capsys.readouterr()
        assert main(["eval", str(out / "L.tns"), str(path)]) == 0
        assert capsys.readouterr().out.strip().split(",") == [row[c] for c in METRICS_HEADER[2:]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("peak", ["1e300", "1e-200"])
    def test_scores_a_pair_of_any_magnitude(self, tmp_path, capsys, peak):
        # the four values of the same pair at unit peak, and no warning
        values = {}
        for scale in (peak, "1.0"):
            paths = [str(tmp_path / f"{scale}-{seed}.tns") for seed in (0, 1)]
            for seed, path in enumerate(paths):
                assert main(["synth", "--shape", "8,8,4", "--rank", "2", "--seed", str(seed),
                             "--peak", scale, "--out", path]) == 0
            capsys.readouterr()
            assert main(["eval"] + paths) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1
            values[scale] = [float(v) for v in lines[0].split(",")]
        assert len(values[peak]) == 4 and not np.isnan(values[peak]).any()
        assert values[peak] == pytest.approx(values["1.0"], rel=1e-12, abs=0)

    def test_recovery_far_larger_than_its_reference_is_one_json_error_line(self, tmp_path,
                                                                            capsys):
        # the unit-peak difference, about 1e300, overflows when squared
        paths = [str(tmp_path / name) for name in ("x.tns", "ref.tns")]
        for seed, peak, path in ((1, "1e290", paths[0]), (0, "1e-10", paths[1])):
            assert main(["synth", "--shape", "8,8,4", "--rank", "2", "--seed", str(seed),
                         "--peak", peak, "--out", path]) == 0
        capsys.readouterr()
        assert main(["eval"] + paths) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_mean_far_below_the_peak_is_one_json_error_line(self, tmp_path, capsys):
        # the first reference band's mean, 1e-169, is 1e-167 of its RMSE
        # error, whose square ERGAS cannot hold: exit 1, not a row with inf
        paths = [str(tmp_path / name) for name in ("x.tns", "ref.tns")]
        for path, t in zip(paths, tiny_mean_pair(1.0)):
            save_tensor(path, t)
        assert main(["eval"] + paths) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]

    def test_missing_file(self, tmp_path, capsys):
        a = tmp_path / "a.tns"
        save_tensor(a, np.zeros((3, 3)))
        assert main(["eval", str(a), str(tmp_path / "nope.tns")]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which", ["recovered", "reference"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_file_is_one_json_error_line(self, tmp_path, capsys, value, which):
        # no score of a NaN or an inf: exit 1 before any output, no warning
        t = np.random.default_rng(2).random((6, 6, 3))
        bad = t.copy()
        bad[1, 2, 0] = value
        a, b = tmp_path / "a.tns", tmp_path / "b.tns"
        save_tensor(a, bad if which == "recovered" else t)
        save_tensor(b, t if which == "recovered" else bad)
        out = tmp_path / "m"
        assert main(["eval", str(a), str(b), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "NaN or inf" in json.loads(lines[0])["error"]
        assert not out.exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, MemoryError])
@pytest.mark.parametrize("command, extra", [
    ("complete", ["--sr", "0.5"] + COMPLETE_FLAGS),
    ("denoise", ["--sp-fraction", "0.05", "--gaussian-sigma", "0.02"]),
])
def test_solver_failure_is_one_json_error_line(tmp_path, capsys, monkeypatch, command, extra,
                                               error):
    def failing_prox(*args, **kwargs):
        raise error("raised inside the prox")

    monkeypatch.setattr(tenrec.completion, "weighted_log_prox", failing_prox)
    _, path = make_instance(tmp_path)
    code = main([command, str(path), "--out", str(tmp_path / "run")] + extra)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["error"]


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_overflowing_solve_is_one_json_error_line(tmp_path, capsys, command):
    # finite data whose squares overflow: the solve stops at the first fault
    gt, _ = make_instance(tmp_path)
    path = tmp_path / "big.tns"
    save_tensor(path, gt * 1e300)
    code = main([command, str(path), "--out", str(tmp_path / "run")] + SOLVE_INPUT[command])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["error"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flags", [
    ("complete", ["--sr", "0.5", "--beta", "1,x,0"]),
    ("complete", ["--sr", "abc"]),
    ("denoise", ["--noniid", "0.1,y"]),
    ("synth", ["--shape", "8,a,5", "--rank", "2"]),
    ("complete", ["--sr", "0.5", "--max-iter", "1.5"]),
    ("complete", ["--sr", "0.5", "--mask", "mask.tns"]),
    ("denoise", ["--noniid", "0.1,0.2", "--sp-fraction", "0.5"]),
    ("synth", ["--shape", "8,7,5", "--rank", "2", "--peak", "nan"]),
    ("synth", ["--shape", "5,4,3", "--rank", "-1"]),
    ("synth", ["--shape", "5,4,3", "--rank", "9"]),
    ("denoise", ["--noniid", "0.1"]),
    ("synth", ["--shape", "4,4", "--rank", "2"]),
    ("complete", ["--sr", "1.5"]),
    ("complete", ["--sr", "0"]),
    ("complete", ["--sr", "nan"]),
])
def test_usage_error_is_one_json_error_line(tmp_path, capsys, command, flags):
    _, path = make_instance(tmp_path)
    argv = [command] + {"synth": [], "eval": [str(path)] * 2}.get(command, [str(path)])
    assert main(argv + flags + ["--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["error"]
    message = json.loads(lines[0])["error"]
    assert any(f"argument {flag}: " in message for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("argv, message", [
    (["synth", "--shape", "8,a,5", "--rank", "2"],
     "tenrec synth: argument --shape: expected three positive extents I1,I2,I3, got '8,a,5'"),
    (["synth", "--shape", "8,7", "--rank", "2"],
     "tenrec synth: argument --shape: expected three positive extents I1,I2,I3, got '8,7'"),
    (["denoise", "data.tns", "--noniid", "0.1"],
     "tenrec denoise: argument --noniid: expected two numbers lo,hi, got '0.1'"),
    (["denoise", "data.tns", "--noniid", "0.1,y"],
     "tenrec denoise: argument --noniid: expected two numbers lo,hi, got '0.1,y'"),
    (["synth", "--shape", "8,7,5", "--rank", "2", "--peak", "nan"],
     "tenrec synth: argument --peak: expected a positive finite number, got 'nan'"),
    (["synth", "--shape", "8,7,5", "--rank", "2", "--peak", "0"],
     "tenrec synth: argument --peak: expected a positive finite number, got '0'"),
    (["complete", "data.tns", "--sr", "0"],
     "tenrec complete: argument --sr: expected a number in (0, 1], got '0'"),
    (["complete", "data.tns", "--sr", "1.5"],
     "tenrec complete: argument --sr: expected a number in (0, 1], got '1.5'"),
    (["complete", "data.tns", "--sr", "abc"],
     "tenrec complete: argument --sr: expected a number in (0, 1], got 'abc'"),
    (["complete", "data.tns", "--sr", "0.5", "--seed", "-1"],
     "tenrec complete: argument --seed: expected a non-negative integer, got '-1'"),
    (["synth", "--shape", "5,4,3", "--rank", "-1"],
     "tenrec synth: argument --rank: expected a non-negative integer, got '-1'"),
    (["synth", "--shape", "5,4,3", "--rank", "9"],
     "tenrec synth: argument --rank: must not exceed min(I1, I2) = 4, got 9"),
], ids=["shape-unparsable", "shape-two-extents", "noniid-one-number", "noniid-unparsable",
        "peak-nan", "peak-zero", "sr-zero", "sr-above-one", "sr-unparsable", "seed-negative",
        "rank-negative", "rank-above-min-extent"])
def test_checked_flag_message(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "run"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": message}) + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "complete", "denoise", "eval"])
@pytest.mark.parametrize("flag", ["--ratio", "--gamma1", "--tau1", "--tau2"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # ERGAS is always scored at ratio 1, rho1 = 1.1 * mu, and tau1_scale sets the TRPCA weights
    _, path = make_instance(tmp_path)
    argv = {"synth": ["--shape", "8,7,5", "--rank", "2"], "eval": [str(path)] * 2}.get(
        command, [str(path)] + SOLVE_INPUT.get(command, []))
    assert main([command] + argv + [flag, "1.1", "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].endswith(f"unrecognized arguments: {flag} 1.1")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["complete", "denoise"])
@pytest.mark.parametrize("flags, config_text, message", [
    (["--mu0", "-1"], None, "mu0 must be positive, got -1.0"),
    ([], "bogus = 1\n", "unknown config key 'bogus'"),
    ([], "gamma1 = 1.1\n", "unknown config key 'gamma1'"),
    ([], "tau1 = 0.1\n", "unknown config key 'tau1'"),
    ([], "tau2 = 1\n", "unknown config key 'tau2'"),
    ([], "gamma = abc\n", "cannot parse gamma value 'abc'"),
    (["--beta", "0.5,0.25,0.2"], None, "beta weights must sum to 1, got 0.95"),
    (["--mu0", "nan"], None, "mu0 must be finite, got nan"),
    (["--epsilon", "inf"], None, "epsilon must be finite, got inf"),
    (["--tol", "nan"], None, "tol must be finite, got nan"),
    (["--growth", "inf"], None, "growth must be finite, got inf"),
    (["--tau1-scale", "nan"], None, "tau1_scale must be finite, got nan"),
    ([], "beta = 0.5,nan,0.5\n", "beta must be finite, got (0.5, nan, 0.5)"),
], ids=["negative-mu0", "unknown-key", "gamma1-key", "tau1-key", "tau2-key",
        "unparsable-value", "beta-sum", "nan-mu0", "inf-epsilon", "nan-tol", "inf-growth",
        "nan-tau1-scale", "nan-beta"])
def test_bad_option_value_is_one_json_error_line(tmp_path, capsys, command, flags,
                                                 config_text, message):
    _, path = make_instance(tmp_path)
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        flags = flags + ["--config", str(tmp_path / "run.cfg")]
    code = main([command, str(path), "--out", str(tmp_path / "run")]
                + SOLVE_INPUT[command] + flags)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].endswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["complete", "denoise"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_beta_count_must_match_the_data_order(tmp_path, capsys, command, source):
    _, path = make_instance(tmp_path)
    flags = ["--beta", "1,0"]
    if source == "config":
        (tmp_path / "run.cfg").write_text("beta = 1,0\n")
        flags = ["--config", str(tmp_path / "run.cfg")]
    code = main([command, str(path), "--out", str(tmp_path / "run")]
                + SOLVE_INPUT[command] + flags)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "beta has 2 weights but a 3-way tensor has 3 mode pairs"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["synth", "complete", "denoise"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    _, path = make_instance(tmp_path)
    argv = (["synth", "--shape", "8,7,5", "--rank", "2"] if command == "synth"
            else [command, str(path)] + SOLVE_INPUT[command])
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].endswith(
        "argument --seed: expected a non-negative integer, got '-1'")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_one_way_tensor_is_one_json_error_line(tmp_path, capsys, command):
    path = tmp_path / "vector.tns"
    save_tensor(path, np.arange(6.0))
    code = main([command, str(path), "--out", str(tmp_path / "run")] + SOLVE_INPUT[command])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].endswith("needs at least a 2-way tensor")


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_ground_truth_of_another_shape_is_refused_before_solving(tmp_path, capsys, command):
    gt, path = make_instance(tmp_path)
    bad_gt = tmp_path / "bad_gt.tns"
    save_tensor(bad_gt, gt[:, :, :1])
    code = main([command, str(path), "--gt", str(bad_gt), "--out", str(tmp_path / "run")]
                + SOLVE_INPUT[command])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "ground truth shape" in json.loads(lines[0])["error"]
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_non_finite_ground_truth_is_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                           command, value):
    gt, path = make_instance(tmp_path)
    bad = gt.copy()
    bad[3, 4, 1] = value
    bad_gt = tmp_path / "bad_gt.tns"
    save_tensor(bad_gt, bad)

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the ground truth was checked")

    monkeypatch.setattr(tenrec.cli, "complete", unreachable)
    monkeypatch.setattr(tenrec.cli, "decompose", unreachable)
    code = main([command, str(path), "--gt", str(bad_gt), "--out", str(tmp_path / "run")]
                + SOLVE_INPUT[command])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ground truth holds NaN or inf"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["complete", "denoise"])
def test_run_that_cannot_be_scored_writes_nothing(tmp_path, capsys, command):
    # at rank 0 every band of the ground truth has zero mean: ERGAS is undefined
    path = tmp_path / "zero.tns"
    assert main(["synth", "--shape", "8,8,4", "--rank", "0", "--out", str(path)]) == 0
    capsys.readouterr()
    code = main([command, str(path), "--max-iter", "5", "--out", str(tmp_path / "run")]
                + SOLVE_INPUT[command])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "zero mean" in json.loads(lines[0])["error"]
    assert not (tmp_path / "run").exists()


def tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


# run in a directory that holds gt.tns, the directory "dir" and the
# existing file "file"
@pytest.mark.parametrize("argv", [
    ["eval", "dir", "gt.tns"],
    ["eval", "gt.tns", "dir"],
    ["complete", "dir", "--sr", "0.5", "--out", "run"],
    ["denoise", "dir", "--out", "run"],
    ["complete", "gt.tns", "--mask", "dir", "--out", "run"],
    ["complete", "gt.tns", "--sr", "0.5", "--config", "dir", "--out", "run"],
    ["complete", "gt.tns", "--sr", "0.5", "--max-iter", "1", "--out", "file"],
    ["eval", "gt.tns", "gt.tns", "--out", "file"],
    ["synth", "--shape", "4,4,2", "--rank", "1", "--out", "file/x.tns"],
], ids=["eval-recovered-dir", "eval-reference-dir", "complete-input-dir", "denoise-input-dir",
        "mask-dir", "config-dir", "complete-out-file", "eval-out-file", "synth-out-under-file"])
def test_unusable_path_is_one_json_error_line(tmp_path, capsys, monkeypatch, argv):
    # a directory read as a file, or a directory made where a file exists
    monkeypatch.chdir(tmp_path)
    make_instance(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    before = tree(tmp_path)
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["error"]
    assert tree(tmp_path) == before


@pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0])
def test_mask_entries_other_than_0_and_1_are_refused(tmp_path, capsys, value):
    gt, path = make_instance(tmp_path)
    mask = (np.arange(gt.size).reshape(gt.shape) % 2).astype(float)
    mask.flat[0] = value
    mask_path = tmp_path / "mask.tns"
    save_tensor(mask_path, mask)
    code = main(["complete", str(path), "--mask", str(mask_path),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"mask {mask_path} holds values other than 0 and 1"}
    assert not (tmp_path / "run").exists()


def test_mask_that_observes_nothing_is_refused(tmp_path, capsys):
    # --sr 0.01 of 32 entries observes round(0.32) = 0 of them
    path = tmp_path / "t.tns"
    assert main(["synth", "--shape", "4,4,2", "--rank", "1", "--seed", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code = main(["complete", str(path), "--sr", "0.01", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "mask observes no entry"}
    assert not (tmp_path / "run").exists()


# a valid non-default value for every SolverConfig field, as command-line text
FIELD_TEXT = {
    "gamma": "50", "epsilon": "0.02", "beta": "0.5,0.25,0.25", "mu0": "0.5", "rho0": "0.2",
    "growth": "1.1", "tol": "1e-3", "max_iter": "7", "penalty_tau": "0.01",
    "tau1_scale": "2", "strict_prox": "true",
}


@pytest.mark.parametrize("command", ["complete", "denoise"])
@pytest.mark.parametrize("field", fields(SolverConfig), ids=lambda f: f.name)
def test_every_config_field_is_a_flag_and_a_config_key(tmp_path, command, field):
    text = FIELD_TEXT[field.name]
    flag = "--" + field.name.replace("_", "-")
    (tmp_path / "run.cfg").write_text(f"{field.name} = {text}\n")
    argv = [command, "data.tns", "--out", "run"] + SOLVE_INPUT[command]
    by_flag = build_parser().parse_args(argv + ([flag] if field.type == "bool" else [flag, text]))
    by_file = build_parser().parse_args(argv + ["--config", str(tmp_path / "run.cfg")])
    cfg = _resolve_config(by_flag)
    assert cfg == _resolve_config(by_file)
    assert getattr(cfg, field.name) != getattr(SolverConfig(), field.name)


def test_entry_point_runs():
    # the child imports the same package as this test, installed or not
    package_root = str(Path(tenrec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tenrec.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_full_pipeline_on_acceptance_instance(tmp_path, capsys):
    """synth -> complete with the shipped config -> eval, end to end."""
    from pathlib import Path

    configs = Path(__file__).resolve().parents[1] / "configs"
    gt_path = tmp_path / "gt.tns"
    assert main(["synth", "--shape", "30,30,20", "--rank", "3", "--seed", "42",
                 "--peak", "1.0", "--out", str(gt_path)]) == 0
    out = tmp_path / "run"
    assert main(["complete", str(gt_path), "--sr", "0.3", "--seed", "42",
                 "--config", str(configs / "lrtc_synthetic.cfg"),
                 "--out", str(out)]) == 0
    gt = load_tensor(gt_path)
    rec = load_tensor(out / "recovered.tns")
    assert np.linalg.norm(rec - gt) / np.linalg.norm(gt) <= 1e-2
    rows = read_csv(out / "metrics.csv")
    assert rows[0]["method"] == "emlcp-tc"
    assert float(rows[0]["psnr"]) > 30.0

    eval_out = tmp_path / "eval"
    assert main(["eval", str(out / "recovered.tns"), str(gt_path),
                 "--out", str(eval_out)]) == 0
    eval_rows = read_csv(eval_out / "metrics.csv")
    assert float(eval_rows[0]["psnr"]) > 30.0

    # the library's A1 instance and solve, bit for bit
    lib_gt, mask, observed = lrtc_instance()
    assert np.array_equal(gt, lib_gt)
    assert np.array_equal(rec, complete(observed, mask, lrtc_config()).tensors["Z"])
