import argparse
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gssd import divergences, experiments
from gssd.cli import build_parser, config_from_args
from gssd.cli import main as cli_main
from gssd.divergences import wasserstein_pp
from gssd.estimator import GssdConfig, estimate
from gssd.divergences import DivergenceSpec
from gssd.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    read_matrix_csv,
    run_experiment,
    rows_csv,
    compare,
)
from gssd.rng import RngRoot
from gssd.slicing import SampleSet, project, sample_direction


def small_cfg(command, **kw):
    base = dict(
        command=command,
        dimensions=(6,),
        sample_sizes=(80,),
        sigmas=(1.0,),
        num_runs=2,
        divergences=("swd",),
        num_projections=16,
        order=2.0,
        seed=42,
        sinkhorn_max_iter=150,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- slope fit


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        xs = np.array([1.0, 4.0, 9.0, 25.0, 100.0])
        pts = list(zip(xs, xs**-0.5))
        assert fit_loglog_slope(pts) == pytest.approx(-0.5, abs=1e-12)

    def test_two_points(self):
        assert fit_loglog_slope([(1.0, 1.0), (100.0, 0.1)]) == pytest.approx(-0.5, abs=1e-12)

    def test_constant(self):
        assert fit_loglog_slope([(1.0, 2.0), (10.0, 2.0), (100.0, 2.0)]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- csv ingestion


class TestReadMatrixCsv:
    def test_plain_matrix(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n")
        m = read_matrix_csv(str(f))
        assert m.shape == (2, 2) and m[1, 0] == 3.0

    def test_optional_header(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b\n1.0,2.0\n3.5,4.5\n")
        m = read_matrix_csv(str(f))
        assert m.shape == (2, 2) and m[0, 1] == 2.0

    def test_ragged_row_names_location(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_matrix_csv(str(f))

    def test_non_numeric_cell_names_location(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            read_matrix_csv(str(f))

    def test_malformed_first_row_is_not_a_header(self, tmp_path):
        # "1.0" parses, so the line is data and its bad cell must be reported
        f = tmp_path / "m.csv"
        f.write_text("1.0,2x\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(ValueError, match="row 1, column 2: '2x'"):
            read_matrix_csv(str(f))

    @pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n", "a,b\n1.0,2.0\n3.0,4.0\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # Excel and PowerShell save UTF-8 CSV with a leading byte-order mark
        f = tmp_path / "m.csv"
        f.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert read_matrix_csv(str(f)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("\n")
        with pytest.raises(ValueError):
            read_matrix_csv(str(f))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_data_row_and_column(self, tmp_path, cell):
        # the header line is not a data row
        f = tmp_path / "m.csv"
        f.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ValueError, match="non-finite value at data row 2, column 2$"):
            read_matrix_csv(str(f))


# ---------------------------------------------------------------- experiments


class TestSampleComplexity:
    def test_row_count_and_schema(self):
        cfg = small_cfg("sample-complexity", sample_sizes=(50, 100), divergences=("swd", "mmd"))
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 2  # sizes x runs x divergences
        assert {r.divergence for r in rows} == {"swd", "mmd"}
        assert all(r.value >= 0 for r in rows)

    def test_rerun_reproduces_values(self):
        cfg = small_cfg("sample-complexity")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.std_error for r in a] == [r.std_error for r in b]

    def test_emit_bound_appends_rows(self):
        cfg = small_cfg("sample-complexity", emit_bound=True, sigmas=(1.5,))
        rows = run_experiment(cfg)
        bound_rows = [r for r in rows if r.divergence == "theory-bound"]
        assert len(bound_rows) == 1
        assert bound_rows[0].value > 0


class TestProjectionComplexity:
    def test_reference_row_is_zero_and_errors_positive(self):
        cfg = small_cfg("projection-complexity", num_projections=256, l_grid=(16, 64, 256))
        rows = run_experiment(cfg)
        assert len(rows) == 3 * 2
        at_ref = [r for r in rows if r.L == 256]
        assert all(r.value == 0.0 for r in at_ref)
        below = [r for r in rows if r.L < 256]
        assert any(r.value > 0 for r in below)

    def test_grid_beyond_reference_rejected(self):
        # 0 would average an empty prefix (NaN); -5 would label a row L = -5 and average L_ref - 5 values
        for grid, message in (
            ((16, 128), r"must lie in \[1, num_projections = 64\], got 128"),
            ((0, 16), "must be an integer >= 1, got 0"),
            ((-5, 16), "must be an integer >= 1, got -5"),
        ):
            with pytest.raises(ValueError, match=f"^each entry of l_grid {message}$"):
                run_experiment(small_cfg("projection-complexity", num_projections=64, l_grid=grid))


class TestNoiseSweep:
    def test_sigma_zero_row_equals_plain_sliced_value(self):
        cfg = small_cfg("noise-sweep", sigmas=(0.0, 1.0), num_runs=1)
        rows = run_experiment(cfg)
        row0 = next(r for r in rows if r.sigma == 0.0)
        # recompute the unsmoothed sliced value from the same streams
        root = RngRoot(cfg.seed)
        tag = f"ns/d{cfg.dimensions[0]}/n{cfg.sample_sizes[0]}/{cfg.pair}"
        X = root.child(f"{tag}/x", 0).stream("data", 0).normals(80 * 6).reshape(80, 6)
        Y = root.child(f"{tag}/y", 0).stream("data", 0).normals(80 * 6).reshape(80, 6)
        run_root = root.child(tag, 0)
        vals = []
        for l in range(cfg.num_projections):
            u = sample_direction(6, run_root.stream("proj", l))
            vals.append(wasserstein_pp(project(SampleSet(X), u), project(SampleSet(Y), u), 2))
        assert row0.value == float(np.mean(vals))

    def test_mmd_less_sensitive_to_noise_than_wasserstein(self):
        cfg = small_cfg(
            "noise-sweep",
            dimensions=(20,),
            sample_sizes=(500,),
            sigmas=(5.0, 15.0),
            num_runs=3,
            divergences=("swd", "mmd"),
            num_projections=32,
        )
        rows = run_experiment(cfg)

        def mean_at(name, sigma):
            sel = [r.value for r in rows if r.divergence == name and r.sigma == sigma]
            return float(np.mean(sel))

        rel_swd = abs(mean_at("swd", 15.0) - mean_at("swd", 5.0)) / mean_at("swd", 5.0)
        rel_mmd = abs(mean_at("mmd", 15.0) - mean_at("mmd", 5.0)) / mean_at("mmd", 5.0)
        assert rel_mmd < rel_swd

    def test_pair_modes_change_data(self):
        same = run_experiment(small_cfg("noise-sweep", num_runs=1))
        shifted = run_experiment(small_cfg("noise-sweep", num_runs=1, pair="shifted"))
        assert shifted[0].value > same[0].value


class TestDisplacement:
    def test_argmin_at_two(self):
        cfg = small_cfg(
            "displacement",
            dimensions=(10,),
            sample_sizes=(128,),
            sigmas=(1.0,),
            num_runs=2,
            s_grid=(1.0, 1.5, 2.0, 2.5, 3.0),
            num_projections=24,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 5 * 2
        curve = {}
        for r in rows:
            s = float(r.experiment.split("s=")[1].rstrip("]"))
            curve.setdefault(s, []).append(r.value)
        means = {s: np.mean(v) for s, v in curve.items()}
        argmin = min(means, key=means.get)
        assert abs(argmin - 2.0) <= 0.5

    def test_curve_symmetric_about_two_and_floor_positive(self):
        cfg = small_cfg(
            "displacement",
            dimensions=(50,),
            sample_sizes=(64,),
            sigmas=(3.0,),
            num_runs=3,
            s_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
            num_projections=16,
        )
        rows = run_experiment(cfg)
        curve, ses = {}, {}
        for r in rows:
            s = float(r.experiment.split("s=")[1].rstrip("]"))
            curve.setdefault(s, []).append(r.value)
            ses.setdefault(s, []).append(r.std_error)
        means = {s: float(np.mean(v)) for s, v in curve.items()}
        for delta in (0.5, 1.0, 1.5, 2.0):
            tol = 2 * (np.mean(ses[2 - delta]) + np.mean(ses[2 + delta]))
            assert abs(means[2 - delta] - means[2 + delta]) <= tol
        # the plug-in estimate between finite noisy sets never reaches zero
        assert means[2.0] > 0.0


class TestTheoryContainment:
    def test_measured_error_stays_below_calibrated_envelope(self):
        # same-distribution toys: the population value is 0, so the estimate
        # itself is the error; the envelope is calibrated through c_p at the
        # smallest n and must stay above at larger n
        import math

        from gssd.bounds import SphericalGaussian, sample_bound, upsilon_constant, xi_constant

        d, sigma, p = 10, 3.0, 2
        xi = xi_constant(p, sigma, 2.0, SphericalGaussian(d, 1.0))
        upsilon_unit = upsilon_constant(p, sigma, SphericalGaussian(d), 1.0)
        ns = (200, 800, 3200)
        measured = {}
        for n in ns:
            vals = []
            for r in range(8):
                X = SampleSet(RngRoot(900 + r).stream(f"tb-x/{n}", 0).normals(n * d).reshape(n, d))
                Y = SampleSet(RngRoot(950 + r).stream(f"tb-y/{n}", 0).normals(n * d).reshape(n, d))
                cfg = GssdConfig(
                    sigma=sigma, num_projections=64,
                    divergence=DivergenceSpec("wasserstein", p=p), seed=RngRoot(1000 + r),
                )
                vals.append(estimate(X, Y, cfg).mean_pow)
            measured[n] = float(np.mean(vals))
        n0 = ns[0]
        c_cal = max(0.0, (measured[n0] - xi / math.sqrt(n0)) * n0 / math.log(n0) / upsilon_unit)
        ratios = []
        for n in ns:
            bound = sample_bound(n, xi, c_cal * upsilon_unit)
            assert measured[n] <= bound
            ratios.append(measured[n] / bound)
        # the measured curve decays at least as fast as the envelope
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestGrid:
    @pytest.mark.parametrize("command", ["sample-complexity", "projection-complexity", "noise-sweep", "displacement"])
    @pytest.mark.parametrize("axis, values", [
        ("dimensions", (3, 5)), ("sample_sizes", (20, 30)), ("sigmas", (1.5, 3.0)),
    ])
    def test_each_axis_entry_yields_the_rows_of_its_own_run(self, command, axis, values):
        # each row must be the row of the run whose grid holds only its own point
        # the envelope of a standard normal source needs sigma > 1 at vartheta = 2
        bound = command == "sample-complexity"
        kw = dict(dimensions=(4,), sample_sizes=(24,), sigmas=(1.5,) if bound else (1.0,), num_runs=1,
                  num_projections=8, l_grid=(2, 8), s_grid=(1.0, 2.0), emit_bound=bound)
        rows = lambda vals: {replace(r, wall_ms=0.0) for r in run_experiment(small_cfg(command, **{**kw, axis: vals}))}
        assert rows(values) == rows(values[:1]) | rows(values[1:])

    def test_compare_is_not_a_grid_command(self):
        with pytest.raises(ValueError, match="compare"):
            run_experiment(small_cfg("compare"))

    @pytest.mark.parametrize("command", ["sample-complexity", "projection-complexity"])
    @pytest.mark.parametrize("field, value", [
        ("num_runs", 2.5), ("num_runs", True), ("num_runs", 0), ("num_runs", np.float64(2.0)),
        ("dimensions", (2.5,)), ("dimensions", (4, True)), ("dimensions", (4, 0)),
        ("sample_sizes", (20.0,)), ("sample_sizes", (False,)), ("sample_sizes", (20, -3)),
        ("l_grid", (2.5, 8)), ("l_grid", (True, 8)),
    ])
    def test_counts_must_be_integers_of_at_least_one(self, command, field, value):
        # a float or a bool used to construct and then fail late with a TypeError, or run once without a word
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            small_cfg(command, **{"l_grid": (4, 16), field: value})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = small_cfg("projection-complexity", num_runs=np.int64(1), dimensions=(np.int32(3),),
                        sample_sizes=(np.int64(20),), l_grid=(np.int64(4), 16))
        assert len(run_experiment(cfg)) == 2


# ---------------------------------------------------------------- compare


class TestCompare:
    def _write_gaussian(self, path, seed, n, d, label="cmp"):
        z = RngRoot(seed).stream(label, 0).normals(n * d).reshape(n, d)
        with open(path, "w") as fh:
            for row in z:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return z

    def test_self_compare_sigma_zero_is_zero(self, tmp_path):
        f = tmp_path / "x.csv"
        self._write_gaussian(f, 5, 50, 4)
        cfg = small_cfg("compare", sigmas=(0.0,))
        report = compare(str(f), str(f), cfg)
        assert report["mean_pow"] == 0.0

    def test_dimension_mismatch_rejected(self, tmp_path):
        fx, fy = tmp_path / "x.csv", tmp_path / "y.csv"
        self._write_gaussian(fx, 5, 20, 4)
        self._write_gaussian(fy, 6, 20, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            compare(str(fx), str(fy), small_cfg("compare"))

    def test_disjoint_halves_match_same_distribution_baseline(self, tmp_path):
        n, d = 400, 10
        z = self._write_gaussian(tmp_path / "all.csv", 7, 2 * n, d)
        fx, fy = tmp_path / "x.csv", tmp_path / "y.csv"
        for path, half in ((fx, z[:n]), (fy, z[n:])):
            with open(path, "w") as fh:
                for row in half:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = small_cfg("compare", dimensions=(d,), sample_sizes=(n,), sigmas=(1.0,), num_projections=48)
        report = compare(str(fx), str(fy), cfg)
        base_cfg = small_cfg(
            "sample-complexity", dimensions=(d,), sample_sizes=(n,), sigmas=(1.0,),
            num_runs=6, num_projections=48,
        )
        base_rows = run_experiment(base_cfg)
        base_roots = [math.sqrt(r.value) for r in base_rows]
        spread = float(np.std(base_roots, ddof=1))
        assert abs(report["root"] - float(np.mean(base_roots))) <= 3 * (spread + report["std_error"])


# ---------------------------------------------------------------- wall_ms


def fake_clock(monkeypatch):
    """Each perf_counter call in experiments advances one second."""
    ticks = iter(range(10**6))
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))


class TestWallMs:
    def test_noise_sweep_splits_the_sweep_time_over_sigma_rows(self, monkeypatch):
        fake_clock(monkeypatch)
        rows = run_experiment(small_cfg("noise-sweep", sigmas=(0.0, 1.0, 3.0, 5.0), num_runs=1))
        assert [r.wall_ms for r in rows] == [250.0] * 4

    def test_projection_complexity_splits_the_reference_time_over_l_rows(self, monkeypatch):
        fake_clock(monkeypatch)
        rows = run_experiment(small_cfg("projection-complexity", num_projections=64, l_grid=(16, 32, 64), num_runs=1))
        assert len(rows) == 3
        assert sum(r.wall_ms for r in rows) == pytest.approx(1000.0, rel=1e-12)
        assert len({r.wall_ms for r in rows}) == 1


# ---------------------------------------------------------------- csv output + cli


class TestCsvOutput:
    def test_row_columns_formatted_by_type(self):
        row = experiments.ResultRow("noise-sweep", "swd", 3, 40, 1, 16, 0, 0.1, 0.25, 2, 1.23456)
        assert experiments.CSV_COLUMNS == (
            "experiment", "divergence", "d", "n", "sigma", "L", "run", "value", "std_error", "unconverged", "wall_ms"
        )
        assert row.as_csv() == "noise-sweep,swd,3,40,1.0,16,0,0.1,0.25,2,1.235"

    def test_header_and_determinism_modulo_wall(self, tmp_path):
        cfg = small_cfg("noise-sweep", sigmas=(0.0, 1.0), out=str(tmp_path / "a.csv"))
        (tmp_path / "a.csv").write_text(rows_csv(cfg, run_experiment(cfg)))
        text = (tmp_path / "a.csv").read_text().splitlines()
        assert text[0] == "# seed = 42"
        assert text[1].startswith("# version = ")
        assert text[2].startswith("# config = ")
        assert text[3] == "experiment,divergence,d,n,sigma,L,run,value,std_error,unconverged,wall_ms"
        # rerun: identical except the wall_ms column
        (tmp_path / "b.csv").write_text(rows_csv(cfg, run_experiment(cfg)))
        a = (tmp_path / "a.csv").read_text().splitlines()
        b = (tmp_path / "b.csv").read_text().splitlines()
        strip = lambda lines: [",".join(ln.split(",")[:-1]) for ln in lines]
        assert strip(a) == strip(b)

    def test_numpy_numbers_write_the_header_of_python_numbers(self):
        # json cannot write numpy integers, which every count of the config accepts
        counts = dict(num_runs=1, num_projections=16, workers=1, seed=7, sinkhorn_max_iter=50,
                      dimensions=(6, 8), sample_sizes=(80,), sigmas=(1.0, 0.5))
        numpy_counts = {k: (tuple(np.array(v)) if isinstance(v, tuple) else np.int64(v)) for k, v in counts.items()}
        assert isinstance(numpy_counts["dimensions"][0], np.integer)
        assert isinstance(numpy_counts["sigmas"][0], np.floating)
        want = rows_csv(small_cfg("sample-complexity", **counts), [])
        assert rows_csv(small_cfg("sample-complexity", **numpy_counts), []) == want
        assert rows_csv(small_cfg("sample-complexity", sigmas=(np.float32(1.0), np.float32(0.5)),
                              **{k: v for k, v in numpy_counts.items() if k != "sigmas"}), []) == want


    def test_numpy_counts_write_the_rows_of_python_counts(self):
        # a numpy count reaches the d, n and L columns; its repr would write np.int64(3)
        python = dict(dimensions=(3,), sample_sizes=(20,), num_projections=4, num_runs=1, sigmas=(1.0,))
        numpy = dict(dimensions=(np.int64(3),), sample_sizes=(np.int64(20),), num_projections=np.int64(4),
                     num_runs=np.int64(1), sigmas=(np.float64(1.0),))
        texts = [rows_csv(cfg, run_experiment(cfg)) for cfg in
                 (ExperimentConfig(command="sample-complexity", **kw) for kw in (python, numpy))]
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(texts[1]) == strip(texts[0])
        assert strip(texts[0])[4].startswith("sample-complexity,swd,3,20,1.0,4,0,")

    def test_unconverged_sinkhorn_is_marked(self, tmp_path):
        out = tmp_path / "skd.csv"
        assert cli_main(["sample-complexity", "--dim", "3", "--sizes", "20", "--runs", "1", "--projections", "4",
                         "--div", "skd", "--sinkhorn-max-iter", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        col = lines[3].split(",").index("unconverged")
        assert [int(ln.split(",")[col]) for ln in lines[4:]] == [4]

    def test_sinkhorn_at_large_order_keeps_its_flag_honest(self, monkeypatch, tmp_path):
        # the CLI's one slice at p 30 spans costs up to 10^25 and one potential of the solve reaches 10^10, yet its
        # value lies within eps log n of W_p^p; at p 60 a potential reaches 10^21, whose rounding is past eps, and
        # the solve says so
        slices, inner = [], divergences.sinkhorn_div
        monkeypatch.setattr(divergences, "sinkhorn_div",
                            lambda x, y, spec: slices.append((x, y, spec)) or inner(x, y, spec))
        out = tmp_path / "skd.csv"
        assert cli_main(["sample-complexity", "--div", "skd", "--p", "30", "--dim", "2", "--sizes", "20", "--runs", "1",
                         "--projections", "1", "--sigmas", "1", "--out", str(out)]) == 0
        ((x, y, spec),) = slices
        res = inner(x, y, spec)
        assert abs(res.value - wasserstein_pp(x, y, 30.0)) <= spec.epsilon * math.log(20)
        assert float(out.read_text().splitlines()[4].split(",")[7]) == res.value
        res = inner(x, y, replace(spec, p=60.0))
        assert res.converged is False and math.isfinite(res.value)

    def test_sinkhorn_past_the_double_resolution_stops_at_once_and_writes_its_row(self, monkeypatch, tmp_path):
        # at p 60 the same slice's potentials reach 10^21, whose rounding is past eps from the warm dual on: the
        # cross solve stops unconverged at its first check, with a finite value and error, not after 1000 steps
        slices, inner = [], divergences.sinkhorn_div
        monkeypatch.setattr(divergences, "sinkhorn_div",
                            lambda x, y, spec: slices.append((x, y, spec)) or inner(x, y, spec))
        out = tmp_path / "skd.csv"
        assert cli_main(["sample-complexity", "--div", "skd", "--p", "60", "--dim", "2", "--sizes", "20", "--runs", "1",
                         "--projections", "1", "--sigmas", "1", "--out", str(out)]) == 0
        ((x, y, spec),) = slices
        value, converged, it, err = divergences._entropic_ot(x, y, 60.0, spec.epsilon, spec.sinkhorn_tol,
                                                             spec.sinkhorn_max_iter)
        assert (converged, it) == (False, 0) and math.isfinite(value) and math.isfinite(err)
        row = out.read_text().splitlines()[4].split(",")
        assert float(row[7]) == inner(x, y, spec).value and row[9] == "1"

    def test_rows_carry_the_count_of_their_estimate(self):
        cfg = small_cfg("projection-complexity", divergences=("skd",), sinkhorn_max_iter=1,
                        num_projections=8, l_grid=(2, 8), num_runs=1, sample_sizes=(20,))
        rows = run_experiment(cfg)
        assert [r.unconverged for r in rows] == [8, 8]
        bound = [r for r in run_experiment(small_cfg("sample-complexity", emit_bound=True, num_runs=1, sigmas=(1.5,)))
                 if r.divergence == "theory-bound"]
        assert bound and all(r.unconverged == 0 and r.wall_ms == 0.0 for r in bound)


class TestCli:
    def test_stdout_equals_out_file(self, tmp_path, capsys):
        args = ["noise-sweep", "--dim", "4", "--sizes", "30", "--sigmas", "0,1", "--runs", "1",
                "--projections", "6", "--seed", "3"]
        assert cli_main(args) == 0
        printed = capsys.readouterr().out.splitlines()
        assert cli_main(args + ["--out", str(tmp_path / "ns.csv")]) == 0
        written = (tmp_path / "ns.csv").read_text().splitlines()
        assert printed[1].startswith("# version = ") and printed[2].startswith("# config = ")
        strip = lambda lines: [ln.rsplit(",", 1)[0] if i > 3 else ln for i, ln in enumerate(lines)]
        assert len(printed) == len(written) == 6
        assert strip(printed) == strip(written)

    @pytest.mark.parametrize("command", ["sample-complexity", "projection-complexity", "noise-sweep", "displacement"])
    def test_defaults_are_the_config_defaults(self, command):
        cfg = config_from_args(build_parser().parse_args([command]))
        assert cfg == ExperimentConfig(command=command)

    def test_command_defaults_apply_only_to_fields_left_unset(self):
        cfg = ExperimentConfig(command="projection-complexity")
        assert (cfg.sample_sizes, cfg.sigmas, cfg.num_projections) == ((500,), (3.0,), 10_000)
        assert ExperimentConfig(command="noise-sweep").sigmas == (0.0, 1.0, 3.0, 5.0, 15.0)
        assert ExperimentConfig(command="noise-sweep", sigmas=(3.0,)).sigmas == (3.0,)
        assert ExperimentConfig(command="compare").num_projections == 50

    def test_sample_complexity_command(self, tmp_path):
        out = tmp_path / "sc.csv"
        rc = cli_main([
            "sample-complexity", "--dim", "5", "--sizes", "40,80", "--sigmas", "1",
            "--runs", "2", "--projections", "8", "--div", "swd", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed = 7"
        assert len(lines) == 4 + 2 * 2

    def test_compare_command_json(self, tmp_path):
        f = tmp_path / "x.csv"
        z = RngRoot(1).stream("clicmp", 0).normals(30 * 3).reshape(30, 3)
        with open(f, "w") as fh:
            for row in z:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out = tmp_path / "rep.json"
        rc = cli_main([
            "compare", str(f), str(f), "--sigmas", "0", "--projections", "8",
            "--div", "swd", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["mean_pow"] == 0.0
        assert report["seed"] != ""

    def test_bad_input_is_an_error_exit(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0,2.0\n3.0\n")
        rc = cli_main(["compare", str(f), str(f), "--projections", "4"])
        assert rc == 2

    @pytest.mark.parametrize("out", [False, True])
    def test_non_finite_cell_is_an_error_exit_without_output(self, tmp_path, capsys, out):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("1.0,2.0\n3.0,4.5\n")
        bad.write_text("1.0,2.0\nnan,4.5\n")
        target = tmp_path / "rep.json"
        assert cli_main(["compare", str(good), str(bad), "--projections", "4",
                         *(["--out", str(target)] if out else [])]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and "non-finite value at data row 2, column 1" in printed.err
        assert not target.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_projection_value_is_an_error_exit(self, tmp_path, capsys):
        big, small = tmp_path / "big.csv", tmp_path / "small.csv"
        big.write_text("1.5e308,1.5e308\n1.4e308,1.5e308\n")
        small.write_text("0.1,-0.3\n1.0,0.5\n-0.7,0.2\n")
        assert cli_main(["compare", str(big), str(small), "--projections", "8", "--sigmas", "0", "--div", "swd"]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and "at sigma 0.0 has a non-finite wasserstein value" in printed.err

    @pytest.mark.parametrize("flag, value", [("--div", "swd,mmd"), ("--sigmas", "1,5")])
    def test_compare_takes_one_divergence_and_one_sigma(self, tmp_path, capsys, flag, value):
        f = tmp_path / "x.csv"
        f.write_text("1.0,2.0\n3.0,4.5\n0.5,1.0\n")
        assert cli_main(["compare", str(f), str(f), "--projections", "4", flag, value]) == 2
        assert "one divergence and one sigma" in capsys.readouterr().err

    def test_emit_bound_rejects_non_integer_order(self, tmp_path):
        # the envelope is defined for integer p only; 2.5 must not give the p = 2 envelope
        args = ["sample-complexity", "--dim", "4", "--sizes", "30", "--sigmas", "1.5", "--runs", "1",
                "--projections", "4", "--emit-bound", "--out", str(tmp_path / "sc.csv")]
        assert cli_main(args + ["--p", "2"]) == 0
        assert cli_main(args + ["--p", "2.5"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--c-p", "-50"], "c_p must be"),
        (["--c-p", "nan"], "c_p must be"),
        (["--vartheta", "inf"], "vartheta must be"),
        (["--vartheta", "nan"], "vartheta must be"),
        (["--sigmas", "1"], "integrability condition"),  # sigma * vartheta = 2 omega: the tail integral diverges
        (["--dim", "200", "--sigmas", "1.0001"], "range"),  # a finite tail integral beyond the double range
        (["--sigmas", "1e-200"], "sigma must be"),  # sigma^2 underflows to 0
    ])
    def test_emit_bound_rejects_invalid_envelope_parameters(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sc.csv"
        args = ["sample-complexity", "--dim", "4", "--sizes", "20", "--sigmas", "3", "--runs", "1",
                "--projections", "4", "--emit-bound", "--out", str(out)]
        assert cli_main(args + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, names", [
        # the tail integral at d = 200, sigma = 1.0001 is finite but beyond the double range
        (["--dim", "200", "--sigmas", "1.0001"], ("d=200", "sigma=1.0001", "vartheta=2.0")),
        # Xi's finite powers multiply past the double range, and at p = 1000 2^(5p/2) is past it on its own
        (["--dim", "50", "--p", "150", "--sigmas", "3"], ("p=150.0", "sigma=3.0", "vartheta=2.0")),
        (["--dim", "50", "--p", "1000", "--sigmas", "3"], ("p=1000.0", "sigma=3.0", "vartheta=2.0")),
    ])
    def test_emit_bound_overflow_names_its_settings(self, capsys, flags, names):
        rc = cli_main(["sample-complexity", "--emit-bound", "--sizes", "20", "--runs", "1", "--projections", "4"] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "double range" in err
        assert "math range error" not in err and "Numerical result" not in err
        assert all(name in err for name in names)

    def test_sinkhorn_cost_beyond_the_double_range_exits_2(self, capsys):
        # |x - y|^400 of two standard normal samples overflows; without the refusal the solve never ends
        rc = cli_main(["sample-complexity", "--div", "skd", "--p", "400", "--dim", "2", "--sizes", "20", "--runs", "1",
                       "--projections", "1", "--sigmas", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "double range" in err and all(name in err for name in ("n=20", "m=20", "p=400.0", "epsilon=0.1"))

    @pytest.mark.parametrize("flags", [
        ["--sigmas", "nan"],
        ["--sigmas", "inf"],
        ["--p", "nan"],
        ["--p", "inf"],
        ["--div", "skd", "--epsilon", "nan"],
        ["--div", "mmd", "--bandwidth", "nan"],
        ["--div", "skd", "--sinkhorn-tol", "nan"],
        ["--sinkhorn-tol", "-1"],
        ["--epsilon", "nan"],  # checked for every divergence, here swd
    ])
    def test_settings_out_of_range_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "sc.csv"
        args = ["sample-complexity", "--dim", "3", "--sizes", "20", "--runs", "1", "--projections", "4",
                "--out", str(out)]
        assert cli_main(args + flags) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--dim", "0"], ["--sizes", "20,0"], ["--sizes", "-3"]])
    def test_counts_below_one_exit_2(self, capsys, flags):
        args = ["sample-complexity", "--dim", "3", "--sizes", "20", "--runs", "1", "--projections", "4"]
        assert cli_main(args + flags) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--runs", "2.5"], ["--dim", "2.5"], ["--sizes", "20,2.5"]])
    def test_non_integer_counts_exit_2(self, capsys, flags):
        args = ["sample-complexity", "--dim", "3", "--sizes", "20", "--runs", "1", "--projections", "4"]
        with pytest.raises(SystemExit) as exc:
            cli_main(args + flags)
        assert exc.value.code == 2

    def test_workers_flag_reproduces_values(self, tmp_path):
        args = [
            "noise-sweep", "--dim", "6", "--sizes", "60", "--sigmas", "0,1",
            "--runs", "1", "--projections", "12", "--div", "swd", "--seed", "3",
        ]
        out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        assert cli_main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert cli_main(args + ["--workers", "8", "--out", str(out8)]) == 0
        strip = lambda p: [",".join(ln.split(",")[:-1]) for ln in p.read_text().splitlines()[3:]]
        assert strip(out1) == strip(out8)

    def test_all_commands_complete_on_reduced_grid(self, tmp_path):
        # CI stand-in for the desk-scale performance budget: every command
        # end-to-end on a small grid, well under the 10-minute envelope
        import time

        t0 = time.monotonic()
        common = ["--dim", "8", "--sizes", "60", "--runs", "2", "--projections", "8",
                  "--div", "swd,mmd,skd", "--sinkhorn-max-iter", "100", "--seed", "5"]
        assert cli_main(["sample-complexity", *common, "--sigmas", "1",
                         "--out", str(tmp_path / "sc.csv")]) == 0
        assert cli_main(["projection-complexity", *common, "--sigmas", "1",
                         "--projections", "64", "--l-grid", "8,16,64",
                         "--out", str(tmp_path / "pc.csv")]) == 0
        assert cli_main(["noise-sweep", *common, "--sigmas", "0,1,3",
                         "--out", str(tmp_path / "ns.csv")]) == 0
        assert cli_main(["displacement", *common, "--sigmas", "1", "--s-grid", "1,2,3",
                         "--out", str(tmp_path / "disp.csv")]) == 0
        assert time.monotonic() - t0 < 600
        for name in ("sc", "pc", "ns", "disp"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "# seed = 5"
            assert len(lines) > 4


# ---------------------------------------------------------------- every flag changes the output


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


# each (command, flag) that build_parser() accepts
_FLAGS = [
    (command, action.option_strings[0])
    for command, sp in _subparsers().items()
    for action in sp._actions
    if action.option_strings and not isinstance(action, argparse._HelpAction)
]

_SKD = ["--div", "skd", "--epsilon", "1", "--sinkhorn-max-iter", "60"]  # every solve ends within the cap, fast
# flag -> (flags both runs add to the baseline, the flag's second value; None for a switch)
_SECOND = {
    "--dim": ([], "4"),
    "--sizes": ([], "24"),
    "--runs": ([], "2"),
    "--sigmas": ([], "3"),
    "--projections": ([], "16"),
    "--p": ([], "1"),
    "--div": ([], "mmd"),
    "--epsilon": (_SKD, "0.5"),
    "--bandwidth": (["--div", "mmd"], "0.5"),
    "--sinkhorn-tol": (_SKD, "1e-3"),
    "--sinkhorn-max-iter": (_SKD, "3"),
    "--seed": ([], "6"),
    "--emit-bound": ([], None),
    "--vartheta": (["--emit-bound"], "3"),
    "--c-p": (["--emit-bound"], "2"),
    "--l-grid": ([], "4,8"),
    "--pair": ([], "shifted"),
    "--s-grid": ([], "1,3"),
}
# flags that must leave the output as it is: where it goes (a path under tmp_path), and how many threads compute it
_SAME = {"--out": None, "--workers": "2"}


class TestFlags:
    @pytest.fixture
    def baseline(self, tmp_path):
        """The tiny run of each command (d = 3, n = 20, one run, L = 8) that each flag then varies."""
        shared = ["--sigmas", "2", "--projections", "8"]
        grid = ["--dim", "3", "--sizes", "20", "--runs", "1", *shared]
        paths = []
        for i, shift in enumerate((0.0, 1.0)):
            z = RngRoot(7).stream("flags", i).normals(20 * 3).reshape(20, 3) + shift
            paths.append(tmp_path / f"m{i}.csv")
            paths[-1].write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in z))
        return {
            "sample-complexity": grid,
            "projection-complexity": [*grid, "--l-grid", "2,8"],
            "noise-sweep": grid,
            "displacement": [*grid, "--s-grid", "1,2"],
            "compare": [*map(str, paths), *shared],
        }

    @staticmethod
    def output(argv, capsys):
        """The `compare` JSON, or the CSV rows without their wall_ms column."""
        assert cli_main(argv) == 0
        text = capsys.readouterr().out
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                text = fh.read()
        return text if argv[0] == "compare" else [ln.rsplit(",", 1)[0] for ln in text.splitlines()[4:]]

    @pytest.mark.parametrize("command, flag", _FLAGS)
    def test_every_flag_changes_the_output(self, baseline, tmp_path, capsys, command, flag):
        assert flag in _SECOND or flag in _SAME, f"{command} {flag}: no second value listed"
        context, value = _SECOND.get(flag, ([], _SAME.get(flag)))
        if flag == "--out":
            value = str(tmp_path / "out")
        argv = [command, *baseline[command], *context]
        varied = argv + [flag] + ([] if value is None else [value])
        unchanged = self.output(argv, capsys) == self.output(varied, capsys)
        assert unchanged == (flag in _SAME), f"{command} {flag} {value}"

    @pytest.mark.parametrize("argv", [
        ["compare", "x.csv", "y.csv", "--dim", "3"],
        ["compare", "x.csv", "y.csv", "--sizes", "20"],
        ["compare", "x.csv", "y.csv", "--runs", "2"],
        ["projection-complexity", "--l-ref", "64"],
        ["sample-complexity", "--dim", "3,x"],
        ["sample-complexity", "--sigmas", "1,,y"],
    ])
    def test_removed_flags_and_malformed_lists_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
