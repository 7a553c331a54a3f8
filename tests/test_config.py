import dataclasses

import numpy as np
import pytest

from tenrec import SolverConfig, build_config, load_config_file


def test_defaults_validate():
    SolverConfig()


def test_pair_weights_uniform_default():
    pw = SolverConfig().pair_weights(3)
    assert [p for p, _ in pw] == [(0, 1), (0, 2), (1, 2)]
    assert all(b == pytest.approx(1.0 / 3.0) for _, b in pw)


def test_pair_weights_one_hot_drops_pairs():
    pw = SolverConfig(beta=(1.0, 0.0, 0.0)).pair_weights(3)
    assert pw == [((0, 1), 1.0)]


def test_pair_weights_below_two_modes_is_empty():
    # the solvers reject such data themselves; resolving the pairs must not fail first
    assert SolverConfig().pair_weights(1) == []


def test_pair_weights_length_check():
    with pytest.raises(ValueError):
        SolverConfig(beta=(1.0,)).pair_weights(3)


def test_beta_sum_checked():
    with pytest.raises(ValueError):
        SolverConfig(beta=(0.6, 0.3, 0.2))
    SolverConfig(beta=(0.6, 0.3, 0.1))


def test_resolve_tau_defaults():
    cfg = SolverConfig()
    tau1, tau2 = cfg.resolve_tau((30, 20, 10))
    assert tau1 == pytest.approx(1.0 / (30 * 10) ** 0.5)
    assert tau2 == pytest.approx(10.0 * tau1)
    tau1b, tau2b = SolverConfig(tau1_scale=0.3).resolve_tau((30, 20, 10))
    assert (tau1b, tau2b) == pytest.approx((0.3 * tau1, 0.3 * tau2))


def test_scalar_validation():
    for bad in (
        dict(gamma=0.0),
        dict(epsilon=-1.0),
        dict(mu0=0.0),
        dict(rho0=0.0),
        dict(growth=0.99),
        dict(tol=0.0),
        dict(max_iter=-1),
        dict(penalty_tau=0.0),
        dict(tau1_scale=0.0),
        dict(mu0=float("nan")),
        dict(epsilon=float("inf")),
        dict(tol=float("nan")),
        dict(growth=float("inf")),
        dict(penalty_tau=float("nan")),
        dict(tau1_scale=float("inf")),
        dict(beta=(float("nan"),) * 3),
        dict(beta=(-0.5, 1.0, 0.5)),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3"])
def test_max_iter_is_an_integer(value):
    # the sweep loop runs range(1, max_iter + 1), which takes only what
    # operator.index takes; a non-integer is refused when built, not mid-solve
    with pytest.raises(ValueError, match="^max_iter must be a non-negative integer"):
        SolverConfig(max_iter=value)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("name", ["gamma", "epsilon", "mu0", "rho0", "tol", "penalty_tau",
                                  "tau1_scale"])
def test_checked_when_built_and_when_updated(name):
    message = f"^{name} must be positive, got -1.0$"
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{name: -1.0})
    with pytest.raises(ValueError, match=message):
        SolverConfig().updated(**{name: -1.0})


def test_built_config_is_frozen():
    cfg = SolverConfig()
    for f in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "gamma = 100\n"
        "beta = 0.5,0.25,0.25\n"
        "max_iter = 42\n"
        "strict_prox = true\n"
    )
    options = load_config_file(path)
    cfg = build_config(options)
    assert cfg.gamma == 100.0
    assert cfg.beta == (0.5, 0.25, 0.25)
    assert cfg.max_iter == 42
    assert cfg.strict_prox is True
    # "none" leaves a field at its default
    path.write_text("max_iter = none\n")
    assert load_config_file(path) == {"max_iter": None}
    assert build_config(load_config_file(path)).max_iter == SolverConfig().max_iter


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        load_config_file(path)


def test_config_file_line_without_equals_sign(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\ngamma 100\n")
    with pytest.raises(ValueError, match=":2: expected 'key = value'"):
        load_config_file(path)


@pytest.mark.parametrize("key", ["gamma1", "tau1", "tau2"])
def test_removed_fields_are_gone(key):
    # rho1 = 1.1 * mu is a solver constant and tau1_scale alone sets the TRPCA weights
    assert not hasattr(SolverConfig(), key)
    with pytest.raises(TypeError):
        SolverConfig(**{key: 1.0})


def test_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma = 100\nmu0 = 0.5\n")
    cfg = build_config(load_config_file(path), {"gamma": 7.0})
    assert cfg.gamma == 7.0       # flag beats file
    assert cfg.mu0 == 0.5         # file beats default
    assert cfg.rho0 == SolverConfig().rho0


def test_shipped_config_files_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("lrtc_synthetic.cfg", "trpca_synthetic.cfg"):
        cfg = build_config(load_config_file(root / name))
        assert cfg.beta == (1.0, 0.0, 0.0)
