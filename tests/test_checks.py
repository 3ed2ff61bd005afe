"""Every setting of the public entry points and configs fails loudly: each real, count, choice and size.

One table names each setting as its ValueError does and gives a call that passes a value to it.  Each
setting gets NaN, +-inf, a bool, a numeric string and values outside its domain; a choice gets near misses
and None; a size gets each too-short prefix of a good value.  Each must raise ValueError that reads
"<name> must <rule> ..., got <value>".  A structural test keeps the rules in one module.
"""

import ast
import math
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import gssd
from gssd import (
    DivergenceSpec,
    ExperimentConfig,
    GssdConfig,
    PointMass,
    RngRoot,
    RngStream,
    SampleSet,
    SphericalGaussian,
    TheoryBound,
    bandwidth_mean_pairwise,
    estimate,
    fit_loglog_slope,
    gaussian_abs_moment,
    kummer_1f1,
    mc_error_bound,
    mmd_sq,
    sample_bound,
    sample_direction,
    smooth_double,
    smoothed_wasserstein_oracle,
    sweep_sigma,
    two_sigma_check,
    upsilon_constant,
    wasserstein_pp,
    xi_constant,
)
from gssd.bounds import _SIGMA_MIN
from gssd.cli import main as cli_main
from gssd.rng import keyed_normals

_SQRT2 = math.sqrt(2.0)
_NON_REALS = [math.nan, math.inf, -math.inf, True, "2"]


class Rule(NamedTuple):
    bad: list
    good: object
    says: str  # the message's words between the setting's name and ", got"; they may go on
    got: Callable = repr  # the bad value as the message shows it


def counts(least=1, extra=()):
    """An integer count of at least ``least``: the non-reals, the two integers below, two fractions and an
    integral float are bad."""
    bad = [*_NON_REALS, least - 1, least - 2, least + 0.5, least + 1.5, np.float64(least + 2), *extra]
    return Rule(bad, least + 1, f"must be an integer >= {least}")


def reals(low=0.0, strict=False, good=None, extra=()):
    """A finite real >= low (> low when strict): the non-reals, the nearest value outside and a unit beyond
    it are bad."""
    if low == -math.inf:
        return Rule([*_NON_REALS, *extra], 1.0 if good is None else good, "must be finite")
    near = low if strict else float(np.nextafter(low, -math.inf))
    rule = ("positive" if strict else "non-negative") if low == 0 else f"{'>' if strict else '>='} {low!r}"
    return Rule([*_NON_REALS, near, low - 1.0, *extra], low + 1.0 if good is None else good,
                f"must be finite and {rule}")


def choices(*options, extra=()):
    """One of ``options``: the first in capitals or after a space, the empty string, None and 1 are bad."""
    first = options[0]
    return Rule([first.upper(), f" {first}", "", None, 1, *extra], first, f"must be one of {options!r}")


def sizes(good):
    """A sequence at least as long as ``good``: each shorter prefix of it is bad, and the message shows its
    length."""
    bad = [good[:k] for k in range(len(good))]
    return Rule(bad, good, f"must be an integer >= {len(good)}", lambda v: repr(len(v)))


def one_axis(good, *bad):
    """A sample of one axis: each of ``bad``, of more axes, is bad, and the message shows its shape."""
    return Rule(list(bad), good, "must be a 1-D array", lambda v: f"shape {np.shape(v)}")


X = SampleSet(np.arange(6.0).reshape(3, 2))
WASSERSTEIN = DivergenceSpec("wasserstein")


def gssd_config(**kw):
    return GssdConfig(**{"sigma": 1.0, "num_projections": 2, "divergence": WASSERSTEIN, "seed": RngRoot(0), **kw})


def oracle_config(**kw):
    return gssd_config(mode="mixture_oracle", **kw)


def experiment(command="sample-complexity", **kw):
    return ExperimentConfig(command=command, **kw)


# id: (the setting's name as its message starts, a call passing the value to it, its rule)
SETTINGS = {
    # rng: a seed or an index is hashed as 64 bits, where 2^64 would alias 0 and -1 would alias 2^64 - 1
    "RngRoot.seed": ("seed", RngRoot, counts(0, [2**64, "42", False])),
    "RngRoot.child.index": ("stream index", lambda v: RngRoot(0).child("x", v), counts(0, [2**64])),
    "RngRoot.stream.index": ("stream index", lambda v: RngRoot(0).stream("x", v), counts(0, [2**64])),
    "RngStream.index": ("stream index", lambda v: RngStream(RngRoot(0), "proj", v), counts(0, [2**64])),
    "RngStream.uniforms.n": ("n", lambda v: RngRoot(0).stream("x", 0).uniforms(v), counts(0)),
    "RngStream.normals.n": ("n", lambda v: RngRoot(0).stream("x", 0).normals(v), counts(0)),
    "keyed_normals.count": ("count of stream 'x'", lambda v: keyed_normals(RngRoot(0), [("x", v)], [0]), counts(0)),
    # the per-index loop packs each index without a type check, so a bool packs as 0 or 1 there
    "keyed_normals.index": (
        "stream index", lambda v: keyed_normals(RngRoot(0), [("x", 2)], [0, v]),
        Rule([v for v in counts(0, [2**64]).bad if v is not True], 1, "must be an integer >= 0"),
    ),
    # slicing
    "sample_direction.d": ("dimension d", lambda v: sample_direction(v, RngRoot(0).stream("x", 0)), counts()),
    "smooth_double.sigma": (
        "sigma", lambda v: smooth_double(np.zeros(3), v, RngRoot(0).stream("x", 0)), reals(extra=[-0.1]),
    ),
    # divergences
    "DivergenceSpec.kind": ("divergence kind", DivergenceSpec, choices("wasserstein", "mmd", "sinkhorn")),
    "DivergenceSpec.p": ("order p", lambda v: DivergenceSpec("wasserstein", p=v), reals(1)),
    "DivergenceSpec.epsilon": ("sinkhorn epsilon", lambda v: DivergenceSpec("sinkhorn", epsilon=v), reals(0, True)),
    "DivergenceSpec.bandwidth": ("fixed bandwidth", lambda v: DivergenceSpec("mmd", bandwidth=v), reals(0, True)),
    # checked for every kind, here one that never reads it
    "DivergenceSpec.sinkhorn_tol": ("sinkhorn_tol", lambda v: DivergenceSpec("wasserstein", sinkhorn_tol=v), reals()),
    "DivergenceSpec.sinkhorn_max_iter": (
        "sinkhorn_max_iter", lambda v: DivergenceSpec("sinkhorn", sinkhorn_max_iter=v), counts(),
    ),
    "wasserstein_pp.p": ("order p", lambda v: wasserstein_pp([0.0], [1.0], v), reals(1, extra=[0.5, -1.0])),
    "wasserstein_pp.len(x)": ("number of x values", lambda v: wasserstein_pp(v, [0.0], 2), sizes([1.0])),
    "wasserstein_pp.len(y)": ("number of y values", lambda v: wasserstein_pp([0.0], v, 2), sizes([1.0])),
    "mmd_sq.bandwidth": ("bandwidth", lambda v: mmd_sq([0.0], [1.0], v), reals(0, True)),
    # a sample of more than one axis is refused, not raveled into one
    "wasserstein_pp.x.ndim": (
        "x", lambda v: wasserstein_pp(v, [0.0, 1.0, 2.0, 3.0], 2),
        one_axis([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]], [[0.0], [1.0]]),
    ),
    "mmd_sq.x.ndim": (
        "x", lambda v: mmd_sq(v, [1.0, 1.0, 1.0, 1.0], 1.0),
        one_axis([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
    ),
    "bandwidth_mean_pairwise.len(y)": (
        "number of y values", lambda v: bandwidth_mean_pairwise([0.5], v), sizes([1.0]),
    ),
    "smoothed_wasserstein_oracle.sigma": (
        "oracle sigma", lambda v: smoothed_wasserstein_oracle([0.0], [1.0], v, 2.0),
        reals(_SIGMA_MIN, extra=[0, 5e-324, 1e-310, 1e-308, 1e-200]),
    ),
    "smoothed_wasserstein_oracle.p": ("order p", lambda v: smoothed_wasserstein_oracle([0.0], [1.0], 1.0, v), reals(1)),
    "smoothed_wasserstein_oracle.grid": (
        "oracle quantile grid", lambda v: smoothed_wasserstein_oracle([0.0], [1.0], 1.0, 2, grid=v),
        counts(1000, [10, 500]),
    ),
    # bounds
    "gaussian_abs_moment.q": ("moment order q", lambda v: gaussian_abs_moment(v, 1.0), reals(extra=[-1])),
    "gaussian_abs_moment.s": ("scale s", lambda v: gaussian_abs_moment(1, v), reals(0, True)),
    "kummer_1f1.a": ("a", lambda v: kummer_1f1(v, 0.5, 1.0), reals(-math.inf)),
    "kummer_1f1.gamma": ("gamma", lambda v: kummer_1f1(1.0, v, 1.0), reals(-math.inf)),
    "kummer_1f1.gamma[pole]": (
        "gamma", lambda v: kummer_1f1(0.5, v, 1.0), Rule([0.0, -2.0], 0.5, "must not be a non-positive integer"),
    ),
    "kummer_1f1.z": ("z", lambda v: kummer_1f1(1.0, 0.5, v), reals(-math.inf)),
    "PointMass.radius": ("radius", PointMass, reals()),
    "PointMass.moment.k": ("moment index k", lambda v: PointMass(1.0).moment(v), counts(0)),
    "PointMass.tail_integral.a": ("a", lambda v: PointMass(1.0).tail_integral(v), reals()),
    "SphericalGaussian.d": ("dimension d", SphericalGaussian, counts()),
    "SphericalGaussian.omega": ("omega", lambda v: SphericalGaussian(2, v), reals(0, True)),
    "SphericalGaussian.moment.k": ("moment index k", lambda v: SphericalGaussian(2).moment(v), counts(0)),
    "SphericalGaussian.tail_integral.a": ("a", lambda v: SphericalGaussian(2).tail_integral(v), reals(good=0.25)),
    "xi_constant.p": ("order p", lambda v: xi_constant(v, 3.0, 2.0, PointMass(1.0)), reals(1)),
    "xi_constant.sigma": ("sigma", lambda v: xi_constant(2, v, 2.0, PointMass(1.0)), reals(_SIGMA_MIN, extra=[0, 0.0])),
    "xi_constant.vartheta": (
        "vartheta", lambda v: xi_constant(2, 3.0, v, PointMass(1.0)), reals(_SQRT2, True, extra=[1.4]),
    ),
    "upsilon_constant.p": ("order p", lambda v: upsilon_constant(v, 3.0, PointMass(1.0)), reals(1)),
    "upsilon_constant.p[integer]": (
        "order p", lambda v: upsilon_constant(v, 1.0, PointMass(1.0)), Rule([1.5, 2.5], 2, "must be an integer"),
    ),
    "upsilon_constant.sigma": (
        "sigma", lambda v: upsilon_constant(2, v, PointMass(1.0)), reals(_SIGMA_MIN, extra=[0]),
    ),
    "upsilon_constant.c_p": ("c_p", lambda v: upsilon_constant(2, 3.0, PointMass(1.0), v), reals(extra=[-50.0])),
    "sample_bound.n": ("n", lambda v: sample_bound(v, 1.0, 1.0), counts()),
    "sample_bound.xi": ("xi", lambda v: sample_bound(4, v, 1.0), reals()),
    "sample_bound.upsilon": ("upsilon", lambda v: sample_bound(4, 1.0, v), reals()),
    "mc_error_bound.len(per_projection)": (
        "number of per-projection values", lambda v: mc_error_bound(np.array(v)), sizes([1.0, 2.0]),
    ),
    "TheoryBound.evaluate.p": ("order p", lambda v: TheoryBound.evaluate(v, 3.0, PointMass(1.0)), reals(1)),
    "TheoryBound.evaluate.sigma": (
        "sigma", lambda v: TheoryBound.evaluate(2, v, PointMass(1.0)), reals(_SIGMA_MIN, extra=[0]),
    ),
    "TheoryBound.evaluate.vartheta": (
        "vartheta", lambda v: TheoryBound.evaluate(2, 3.0, PointMass(1.0), vartheta=v),
        reals(_SQRT2, True, extra=[1.0]),
    ),
    "TheoryBound.evaluate.c_p": ("c_p", lambda v: TheoryBound.evaluate(2, 3.0, PointMass(1.0), c_p=v), reals()),
    "TheoryBound.at.n": ("n", lambda v: TheoryBound.evaluate(2, 3.0, PointMass(1.0)).at(v), counts()),
    # estimator
    "GssdConfig.sigma": ("sigma", lambda v: gssd_config(sigma=v), reals()),
    "GssdConfig.num_projections": ("num_projections", lambda v: gssd_config(num_projections=v), counts(1, ["4"])),
    "GssdConfig.mode": ("mode", lambda v: gssd_config(mode=v), choices("double_empirical", "mixture_oracle")),
    "GssdConfig.sigma[mixture_oracle]": (
        "sigma in mixture_oracle mode", lambda v: oracle_config(sigma=v), reals(_SIGMA_MIN, extra=[0, 1e-310]),
    ),
    "GssdConfig.oracle_grid": ("oracle quantile grid", lambda v: oracle_config(oracle_grid=v), counts(1000)),
    "estimate.workers": ("workers", lambda v: estimate(X, X, gssd_config(), workers=v), counts(1, ["4"])),
    "sweep_sigma.sigmas": ("sigma", lambda v: sweep_sigma(X, X, [1.0, v], gssd_config()), reals(extra=[-0.5])),
    "sweep_sigma.sigmas[mixture_oracle]": (
        "sigma in mixture_oracle mode", lambda v: sweep_sigma(X, X, [1.0, v], oracle_config()),
        reals(_SIGMA_MIN, extra=[0]),
    ),
    "sweep_sigma.len(sigmas)": ("number of sigmas", lambda v: sweep_sigma(X, X, v, gssd_config()), sizes([1.0])),
    "sweep_sigma.workers": (
        "workers", lambda v: sweep_sigma(X, X, [1.0], gssd_config(), workers=v), counts(1, ["4"]),
    ),
    "two_sigma_check.sigma1": ("sigma1", lambda v: two_sigma_check(X, X, v, 1.0, gssd_config()), reals()),
    "two_sigma_check.sigma2": ("sigma2", lambda v: two_sigma_check(X, X, 0.5, v, gssd_config()), reals(0.5)),
    "two_sigma_check.workers": (
        "workers", lambda v: two_sigma_check(X, X, 0.5, 1.0, gssd_config(), workers=v), counts(1, ["4"]),
    ),
    # experiments
    "ExperimentConfig.command": (
        "command", experiment,
        choices("sample-complexity", "projection-complexity", "noise-sweep", "displacement", "compare",
                extra=["sample_complexity"]),
    ),
    **{
        f"ExperimentConfig.len({grid})": (
            f"number of {grid}", lambda v, grid=grid: experiment(**{grid: v}), sizes(good),
        )
        for grid, good in (("dimensions", (4,)), ("sample_sizes", (20,)), ("sigmas", (1.0,)),
                           ("divergences", ("swd",)), ("l_grid", (4,)), ("s_grid", (1.0,)))
    },
    "ExperimentConfig.dimensions": ("each entry of dimensions", lambda v: experiment(dimensions=(4, v)), counts()),
    "ExperimentConfig.sample_sizes": (
        "each entry of sample_sizes", lambda v: experiment(sample_sizes=(20, v)), counts(),
    ),
    "ExperimentConfig.sigmas": ("each entry of sigmas", lambda v: experiment(sigmas=(1.0, v)), reals()),
    "ExperimentConfig.divergences": (
        "each entry of divergences", lambda v: experiment(divergences=("swd", v)), choices("swd", "mmd", "skd"),
    ),
    "ExperimentConfig.pair": ("pair", lambda v: experiment(pair=v), choices("same", "shifted", "scaled")),
    "ExperimentConfig.num_runs": ("num_runs", lambda v: experiment(num_runs=v), counts()),
    "ExperimentConfig.num_projections": ("num_projections", lambda v: experiment(num_projections=v), counts()),
    "ExperimentConfig.order": ("order p", lambda v: experiment(order=v), reals(1, extra=[0.5])),
    "ExperimentConfig.epsilon": ("sinkhorn epsilon", lambda v: experiment(epsilon=v), reals(0, True)),
    "ExperimentConfig.bandwidth": ("fixed bandwidth", lambda v: experiment(bandwidth=v), reals(0, True)),
    "ExperimentConfig.sinkhorn_tol": ("sinkhorn_tol", lambda v: experiment(sinkhorn_tol=v), reals()),
    "ExperimentConfig.sinkhorn_max_iter": ("sinkhorn_max_iter", lambda v: experiment(sinkhorn_max_iter=v), counts()),
    "ExperimentConfig.seed": ("seed", lambda v: experiment(seed=v), counts(0, [2**64])),
    "ExperimentConfig.workers": ("workers", lambda v: experiment(workers=v), counts()),
    "ExperimentConfig.l_grid": ("each entry of l_grid", lambda v: experiment(l_grid=(4, v)), counts()),
    "ExperimentConfig.l_grid[projection-complexity]": (
        "each entry of l_grid", lambda v: experiment("projection-complexity", num_projections=16, l_grid=(4, v)),
        counts(),
    ),
    "ExperimentConfig.l_grid[> num_projections]": (
        "each entry of l_grid", lambda v: experiment("projection-complexity", num_projections=16, l_grid=(4, v)),
        Rule([17, 2**64], 16, "must lie in [1, num_projections = 16]"),
    ),
    "ExperimentConfig.s_grid": ("each entry of s_grid", lambda v: experiment(s_grid=(1.0, v)), reals(-math.inf)),
    "ExperimentConfig.vartheta": ("vartheta", lambda v: experiment(vartheta=v), reals(_SQRT2, True)),
    "ExperimentConfig.c_p": ("c_p", lambda v: experiment(c_p=v), reals()),
    "fit_loglog_slope.x": ("each point's x", lambda v: fit_loglog_slope([(2.0, 1.0), (v, 2.0)]), reals(0, True)),
    "fit_loglog_slope.y": ("each point's y", lambda v: fit_loglog_slope([(1.0, v), (2.0, 1.0)]), reals(0, True)),
    "fit_loglog_slope.len(points)": ("number of points", fit_loglog_slope, sizes([(1.0, 1.0), (2.0, 2.0)])),
}

CASES = [
    pytest.param(name, call, value, rule, id=f"{key}={value!r}")
    for key, (name, call, rule) in SETTINGS.items()
    for value in rule.bad
]


@pytest.mark.parametrize("name, call, value, rule", CASES)
def test_bad_value_raises_value_error_naming_the_setting(name, call, value, rule):
    message = f"^{re.escape(name)} {re.escape(rule.says)}.*, got {re.escape(rule.got(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("key", SETTINGS)
def test_each_call_accepts_a_good_value(key):
    # so that each bad value above fails on its own setting, not on the call around it
    _, call, rule = SETTINGS[key]
    call(rule.good)


@pytest.mark.parametrize("field, value", [("divergences", ("swd", "mmd")), ("sigmas", (1.0, 3.0))])
def test_compare_config_takes_one_divergence_and_one_sigma(field, value):
    with pytest.raises(ValueError, match="one divergence and one sigma"):
        ExperimentConfig(command="compare", **{field: value})


@pytest.mark.parametrize("flag, value, name", [
    ("--projections", "0", "num_projections"), ("--workers", "0", "workers"), ("--seed", "-1", "seed"),
])
@pytest.mark.parametrize("command", ["sample-complexity", "compare"])
def test_cli_exits_2_on_a_bad_count(tmp_path, capsys, command, flag, value, name):
    f = tmp_path / "x.csv"
    f.write_text("1.0,2.0\n3.0,4.5\n")
    files = [str(f), str(f)] if command == "compare" else []
    assert cli_main([command, *files, flag, value, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_only_the_checks_module_defines_check_functions():
    # one rule per kind of setting: a second _check_sigma with its own rule cannot creep back
    src = Path(gssd.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "_checks.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_check_")
    ]
    assert found == []
