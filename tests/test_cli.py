import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schroflow import cli, flow
from schroflow.cli import main
from schroflow.oscillator import ModeIndex, build_table, make_mode
from schroflow.angular import constant_a_spectrum
from schroflow.radialfd import RadialSchema, evolve_heat


# one small valid run per command: a few hundred grid points, seconds in total
LOSS = {"N": 3, "a": -0.1875}
SMALL_RUNS = {
    "spectrum": {"K": 6},
    "evolve": {"mode": [0, 1], "t": 1.0, "route": "fd", "fd_points": 500, "dt": 1e-2},
    "decay": {"mode": [0, 1], "times": {"lo_exp": 0, "hi_exp": 7}, "samples": 50},
    "kernel": {"K": 4, "rho": [0.5, 2.0], "x_dir": [0.4, 0.3], "y_dir": [1.2, 2.1]},
    "heat": {"fd_points": 500, "dt": 1e-2, "fit_times": [1, 4, 16, 64, 256]},
    "compare": {"mode": [0, 1], "fd_points": 500, "dt": 1e-2, "r_max": 10.0},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    header = []
    rows = []
    cols = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif cols is None:
                cols = line.split(",")
            else:
                rows.append(line.split(","))
    return header, cols, rows


class TestSpectrum:
    def test_loss_of_decay_run(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"K": 4}})
        out = tmp_path / "out"
        code = main(["spectrum", "--config", cfg, "--out", str(out)])
        assert code == 0
        header, cols, rows = read_csv(out / "spectrum.csv")
        assert cols == ["k", "mu", "alpha", "beta"]
        assert any("classification: loss_of_decay" in h for h in header)
        assert any(h.startswith("# config_sha256: ") for h in header)
        assert rows[0] == ["1", repr(-0.1875), repr(0.25), repr(0.25)]

    def test_hardy_violation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.25},
                            "experiment": {"K": 2}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        header, _, _ = read_csv(out / "spectrum.csv")
        assert any("classification: invalid" in h for h in header)

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0}, "bogus": 1})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2

    def test_expectation_miss_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"K": 1}})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--expect", '{"alpha_1": 0.5, "alpha_1_tol": 0.01}'])
        assert code == 4

    def test_bound_miss_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {"K": 1}})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--expect", '{"alpha_1_max": 0.1}'])
        assert code == 4
        assert capsys.readouterr().err == ("expectation miss: alpha_1 = 0.25 exceeds bound 0.1"
                                           " by 0.15\n")

    def test_tolerance_miss_prints_exact_numbers(self, tmp_path, capsys):
        # a miss against a tolerance finer than 6 digits still shows the
        # numbers that differ, and by how much
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {"K": 1}})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--expect", '{"alpha_1": 0.2500000000001, "alpha_1_tol": 1e-14}'])
        assert code == 4
        assert capsys.readouterr().err == (
            "expectation miss: alpha_1 = 0.25 outside 0.2500000000001 +- 1e-14"
            f" by {0.2500000000001 - 0.25!r}\n")

    def test_magnetic_circle_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 2, "magnetic": {"0": 0.3},
                                        "truncation": 16},
                            "experiment": {"K": 3}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "spectrum.csv")
        assert float(rows[0][1]) == pytest.approx(0.09, abs=1e-10)

    def test_rows_capped_at_the_truncation(self, tmp_path):
        # truncation 3 has 2*3 + 1 = 7 circle modes, fewer than K
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 2, "magnetic": {"0": 0.3}, "truncation": 3},
                            "experiment": {"K": 10}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "spectrum.csv")
        assert [row[0] for row in rows] == [str(k) for k in range(1, 8)]

    def test_byte_identical_reruns(self, tmp_path):
        for command, experiment in SMALL_RUNS.items():
            cfg = write_config(tmp_path, f"{command}.json",
                               {"problem": LOSS, "experiment": experiment})
            outs = [tmp_path / command / run for run in ("r1", "r2")]
            for out in outs:
                assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
            files = sorted(p.name for p in outs[0].iterdir())
            assert files == sorted(p.name for p in outs[1].iterdir())
            for name in files:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestEvolve:
    def test_closed_route_matches_library(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"mode": [0, 1], "t": 1.0,
                                           "route": "closed"}})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "profiles.csv")
        assert cols == ["t", "r", "re_u", "im_u"]
        table = build_table(constant_a_spectrum(3, -0.1875, 1), 1)
        mode = make_mode(ModeIndex(0, 1), table)
        r = np.array([float(row[1]) for row in rows])
        u = np.array([complex(float(row[2]), float(row[3])) for row in rows])
        ref = flow.evolve_mode_closed_form(mode, r, 1.0)
        assert np.max(np.abs(u - ref)) == 0.0

    def test_kernel_route_summary(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"mode": [0, 1], "t": 1.0,
                                           "route": "kernel"}})
        out = tmp_path / "out"
        code = main(["evolve", "--config", cfg, "--out", str(out),
                     "--expect", '{"rel_l2_max": 1e-3}'])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["rel_l2_vs_closed"] < 1e-6
        assert "config_sha256" in summary["provenance"]

    def test_kernel_route_grid(self, tmp_path):
        # the output grid r = 2t k of the log grid, clipped to
        # [1e-3 sqrt(1+t^2), r_max]; the route reads no quadrature size
        t, r_max = 2.0, 12.0
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [0, 1], "t": t, "route": "kernel", "r_max": r_max}})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        header, _, rows = read_csv(out / "profiles.csv")
        r = np.array([float(row[1]) for row in rows])
        assert r[0] >= 1e-3 * math.sqrt(1.0 + t * t) and r[-1] <= r_max
        assert np.allclose(np.diff(np.log(r)), math.log(flow.LOG_GRID_HI / flow.LOG_GRID_LO)
                                                     / (flow.LOG_GRID_POINTS - 1))
        assert not any("quad_" in line for line in header)

    def test_kernel_route_past_r_max_exit_code(self, tmp_path, capsys):
        # at t = 1e5 the route keeps r >= 1e-3 sqrt(1+t^2) = 100 > r_max
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [0, 1], "t": 1e5, "route": "kernel"}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 5
        assert "past r_max" in capsys.readouterr().err

    def test_fd_route_default_error_at_n5(self, tmp_path):
        # (N-2)/2 = 3/2 and a = -2 give mu_1 = -2, alpha_1 = 1: the schema
        # takes the table's alpha_1, and the route reads 1.58e-8 here
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 5, "a": -2.0},
                            "experiment": {"mode": [0, 1], "t": 1.0, "route": "fd"}})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["rel_l2_vs_closed"] <= 1e-7

    def test_fd_route_default_step_leaves_no_time_error_on_mode_10_1(self, tmp_path):
        # mode (10,1) oscillates fast enough that a fourth-order step's time
        # error shows: Pade (2,2) at dt 1e-2 read 1.98e-5 here, 4.0x its run
        # at dt/2.  Pade (12,12) at the default dt 0.25 reads 5.31e-6, and
        # Pade (6,6) read 5.55e-6 at dt 5e-2 and 5.30e-6 at dt 1.25e-2
        def rel_l2(name, **step):
            cfg = write_config(tmp_path, f"{name}.json", {"problem": LOSS, "experiment": {
                "mode": [10, 1], "t": 1.0, "route": "fd", **step}})
            out = tmp_path / name
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
            return json.loads((out / "summary.json").read_text())["rel_l2_vs_closed"]

        default = rel_l2("default")
        assert default <= 8e-6
        assert default == pytest.approx(rel_l2("half", dt=cli._FD_DT / 2.0), rel=0.1)

    def test_bad_route(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"mode": [0, 1], "t": 1.0,
                                           "route": "teleport"}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_mode_spec(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"mode": [0], "t": 1.0}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_non_numeric_time_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"mode": [0, 1], "t": [1]}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_mode_past_truncation_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 2, "magnetic": {"0": 0.3},
                                        "truncation": 2},
                            "experiment": {"mode": [0, 9], "t": 1.0}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_closed_route_far_out_writes_no_nan(self, tmp_path):
        # past the Gaussian's underflow an n = 20 mode is 0, not inf * 0
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": 0.0}, "experiment": {
            "mode": [20, 1], "t": 1.0, "r_max": 1e20}})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert "nan" not in (out / "profiles.csv").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("j", [1, 5])
    def test_closed_route_past_r_squared_overflow_writes_no_nan(self, tmp_path, j):
        # past r ~ 1.3e154 the phase's r^2 overflows, and so does r^{-alpha}
        # = r^2 of mode j = 5: 0 * exp(1j * inf) and inf * 0 were NaN
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": 0.0}, "experiment": {
            "mode": [0, j], "t": 1.0, "r_max": 1e200}})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert "nan" not in (out / "profiles.csv").read_text()

    @pytest.mark.parametrize("problem, experiment", [
        (LOSS, {"mode": [0, 1], "t": 1.0}),
        ({"N": 3, "a": 0.5}, {"mode": [2, 3], "t": 4.0, "r_max": 12.0}),
        ({"N": 2, "a": 0.2, "magnetic": {"0": 0.3}}, {"mode": [1, 2], "t": 2.0}),
    ])
    def test_kernel_profiles_are_the_cropped_whole_output(self, tmp_path, monkeypatch,
                                                           problem, experiment):
        # the route forms only the output nodes in [1e-3 sqrt(1+t^2), r_max]
        # and writes t as a scalar column: the file is the one written from
        # the whole output grid cropped to that range, with np.full's t
        cfg = write_config(tmp_path, "c.json", {"problem": problem, "experiment": {
            **experiment, "route": "kernel"}})
        written, write = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda *args: written.append(args) or write(*args))
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        [(_, provenance, extra, _)] = written
        config, _ = cli.load_config(cfg, "evolve")
        index, t, r_max = (config["experiment"][key] for key in ("mode", "t", "r_max"))
        table = cli._spectral_table(config["problem"], index.j)
        grid, weights = flow.log_grid()
        whole = flow.propagate_representation(flow.SeparatedState(
            grid, weights, {index.j: make_mode(index, table).radial(grid)}, table), t)
        keep = (whole.grid >= 1e-3 * math.sqrt(1.0 + t * t)) & (whole.grid <= r_max)
        u = whole.profiles[index.j][keep]
        write(str(tmp_path / "ref.csv"), provenance, extra, {
            "t": np.full(np.count_nonzero(keep), t), "r": whole.grid[keep],
            "re_u": u.real, "im_u": u.imag})
        assert (out / "profiles.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("j, code", [(7, 0), (9, 2)])
    def test_last_mode_of_the_truncation(self, tmp_path, j, code):
        # truncation 3 has 7 circle modes
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 2, "magnetic": {"0": 0.3}, "truncation": 3},
                            "experiment": {"mode": [0, j], "t": 1.0}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == code


class TestDecay:
    def test_asymptotic_slope(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"mode": [0, 1], "weight": 0.25,
                                           "times": {"lo_exp": 4, "hi_exp": 14},
                                           "window": [1e-4, 2.0],
                                           "samples": 400}})
        out = tmp_path / "out"
        code = main(["decay", "--config", cfg, "--out", str(out),
                     "--expect", '{"slope": -1.25, "slope_tol": 0.02}'])
        assert code == 0
        report = json.loads((out / "decay.json").read_text())
        assert abs(report["decay"]["fitted_slope"] + 1.25) < 0.02
        assert (out / "samples.csv").exists()

    def test_samples_are_the_amplitude_sup(self, tmp_path):
        # README's example: each sample is the weighted sup of the closed
        # form's real amplitude, bit for bit; the complex field's modulus
        # moved 4 of the 11 samples in their last digit
        cfg = write_config(tmp_path, "c.json",
                           {"problem": LOSS,
                            "experiment": {"mode": [0, 1], "weight": 0.25,
                                           "times": {"lo_exp": 4, "hi_exp": 14}}})
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "samples.csv")
        assert cols == ["t", "weighted_sup"] and len(rows) == 11
        table = build_table(constant_a_spectrum(3, -0.1875, 1), 1)
        mode = make_mode(ModeIndex(0, 1), table)
        r = np.geomspace(1e-3, 60.0, 4000)
        ang_sup = table.eigsys.sup_abs(1)
        for t, sup in rows:
            amp = flow.closed_form_amplitude(mode, r, float(t))
            assert float(sup) == flow.weighted_sup_norm(r, amp, 0.25) * ang_sup

    def test_samples_keep_the_given_order_in_any_block(self, tmp_path, monkeypatch):
        # one closed-form call per block of times; a block of one time is
        # the per-time loop, and the rows keep the given order either way
        times = [64, 2, 1024, 16, 8]
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [1, 1], "weight": 0.25, "times": times, "samples": 300}})
        csv = []
        for block in (cli._DECAY_BLOCK, 300, 600):
            monkeypatch.setattr(cli, "_DECAY_BLOCK", block)
            out = tmp_path / f"out{block}"
            assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
            csv.append((out / "samples.csv").read_bytes())
        assert csv[1] == csv[0] and csv[2] == csv[0]
        _, _, rows = read_csv(tmp_path / "out300" / "samples.csv")
        assert [float(t) for t, _ in rows] == times

    def test_mode_of_degree_86(self, tmp_path):
        # mode 7397 is Y_86^-86, whose sup over the sphere overflowed
        cfg = write_config(tmp_path, "c.json",
                           {"problem": FREE, "experiment": {"mode": [0, 7397]}})
        assert main(["decay", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_window_past_the_gaussian_underflow(self, tmp_path):
        # the closed form of an n = 20 mode on r up to 1e20 was NaN, and so
        # was the slope, with exit 0
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": 0.0}, "experiment": {
            "mode": [20, 1], "window": [1e-3, 1e20], "times": {"lo_exp": 4, "hi_exp": 14}}})
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        slope = json.loads((out / "decay.json").read_text())["decay"]["fitted_slope"]
        assert abs(slope + 1.5) <= 0.01

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_window_past_the_phase_overflow(self, tmp_path):
        # the closed form was NaN past r ~ 1.3e154, and the fit exited 5
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": 0.0}, "experiment": {
            "mode": [0, 1], "window": [1e-3, 1e200], "times": {"lo_exp": 4, "hi_exp": 14}}})
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        slope = json.loads((out / "decay.json").read_text())["decay"]["fitted_slope"]
        assert abs(slope + 1.5) <= 0.01

    def test_preasymptotic_window_misses(self, tmp_path):
        # early dyadic times are biased by the (1+t^2) scale: slope -1.2125
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.1875},
                            "experiment": {"mode": [0, 1], "weight": 0.25,
                                           "times": {"lo_exp": 0, "hi_exp": 10},
                                           "window": [1e-4, 2.0],
                                           "samples": 400}})
        code = main(["decay", "--config", cfg, "--out", str(tmp_path),
                     "--expect", '{"slope": -1.25, "slope_tol": 0.02}'])
        assert code == 4


class TestKernel:
    def test_free_constancy_column(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"K": 169, "path": "legendre_collapsed",
                                           "rho": {"lo": 0.1, "hi": 2.0, "n": 8},
                                           "x_dir": [0.4, 0.3],
                                           "y_dir": [1.2, 2.1]}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "kernel.csv")
        i = cols.index("scaled_modulus")
        for row in rows:
            assert abs(float(row[i]) - 1.0) < 1e-5
            assert row[cols.index("truncation_warning")] == "0"

    def test_rho_range_without_bounds_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"K": 9, "rho": {"hi": 2.0, "n": 4},
                                           "x_dir": [0.4, 0.3],
                                           "y_dir": [1.2, 2.1]}})
        assert main(["kernel", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_zero_radius_free(self, tmp_path):
        # every alpha_k of the free problem is <= 0, so rho = 0 has a value:
        # |K| = (2 pi)^{-3/2} from the l = 0 mode alone
        cfg = write_config(tmp_path, "c.json",
                           {"problem": FREE, "experiment": {**KERNEL, "rho": [0.0, 1.0]}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "kernel.csv")
        assert float(rows[0][cols.index("rho")]) == 0.0
        assert float(rows[0][cols.index("scaled_modulus")]) == pytest.approx(1.0, abs=1e-12)

    def test_aharonov_bohm_run(self, tmp_path, aharonov_bohm_series):
        # the N=2 kernel path through the CLI (it once ended in a traceback)
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 2, "a": 0.2, "magnetic": {"0": 0.3}},
                            "experiment": {"K": 9, "rho": [0.3, 2.0, 7.5],
                                           "x_dir": 0.7, "y_dir": 2.9}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "kernel.csv")
        values = np.array([complex(float(row[cols.index("re_K")]), float(row[cols.index("im_K")]))
                           for row in rows])
        ref = aharonov_bohm_series(0.3, 0.2, 9, 0.7, 2.9, np.array([0.3, 2.0, 7.5]))
        assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    def test_mode_sum_past_degree_85(self, tmp_path):
        # K = 87^2: the associated Legendre function of degree 86 overflowed,
        # and mode_sum exited 5 on a weighted modulus that was not finite
        values = {}
        for path in ("mode_sum", "legendre_collapsed"):
            cfg = write_config(tmp_path, f"{path}.json",
                               {"problem": FREE,
                                "experiment": {"K": 7569, "path": path, "rho": [0.5, 20.0],
                                               "x_dir": [0.4, 0.3], "y_dir": [1.2, 2.1]}})
            out = tmp_path / path
            assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
            _, cols, rows = read_csv(out / "kernel.csv")
            values[path] = np.array([complex(float(row[cols.index("re_K")]),
                                             float(row[cols.index("im_K")])) for row in rows])
        ref = values["legendre_collapsed"]
        assert np.all(np.abs(values["mode_sum"] - ref) <= 1e-13 * np.abs(ref))

    def test_empty_grid_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"K": 9, "rho": [],
                                           "x_dir": [0.4, 0.3],
                                           "y_dir": [1.2, 2.1]}})
        assert main(["kernel", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestHeat:
    def test_free_heat_run(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"k": 1, "fd_points": 3000,
                                           "dt": 2e-3}})
        out = tmp_path / "out"
        code = main(["heat", "--config", cfg, "--out", str(out),
                     "--expect", '{"residual_max": 1e-4}'])
        assert code == 0
        report = json.loads((out / "residual.json").read_text())
        assert abs(report["fitted_exponent"] + 1.5) < 1e-10

    def test_free_heat_writes_no_free_profile_deviation(self, tmp_path):
        # free_profile_dev compared mode k's profile with mode 1's, so it read
        # 0.348 at k = 2, and 0.0 by construction at k = 1
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": {
            "k": 2, "fd_points": 500, "fit_times": [1, 4, 16, 64, 256]}})
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == 0
        assert "free_profile_dev" not in json.loads((out / "residual.json").read_text())

    def test_hardy_violation(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": -0.5},
                            "experiment": {"k": 1}})
        assert main(["heat", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_defaults_recorded(self, tmp_path):
        # heat marches on the evolve and compare default grid, but keeps its
        # own step: backward Euler is first order, where the fd route's
        # Pade (12,12) takes dt 0.25
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {}})
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == 0
        parameters = json.loads((out / "residual.json").read_text())["provenance"]["parameters"]
        assert {key: parameters[key] for key in ("k", "t0", "t1", "r_max", "fd_points", "dt")} \
            == {"k": 1, "t0": 1.0, "t1": 2.0, "r_max": 30.0, "fd_points": 1500, "dt": 1e-2}
        _, _, rows = read_csv(out / "heat.csv")
        assert len(rows) == 1500

    # backward Euler alone at dt 1e-3 read 2.0e-4 and 4.95e-4 here; at N = 4,
    # a = -0.9 (alpha_1 = 1 - sqrt(0.1), about 0.684) the default read 1.00e-5
    @pytest.mark.parametrize("N, a, k, bound", [
        pytest.param(3, -0.1875, 1, 2e-5, id="loss a-0.1875 k1"),
        pytest.param(3, 0.5, 2, 3e-5, id="classical a0.5 k2"),
        pytest.param(4, -0.9, 1, 2e-5, id="loss N4 a-0.9 k1"),
    ])
    def test_default_stepper_error(self, tmp_path, N, a, k, bound):
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": N, "a": a},
                                                "experiment": {"k": k}})
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "residual.json").read_text())["stepper_rel_l2"] <= bound

    @pytest.mark.parametrize("a, k", [(-0.1875, 1), (0.5, 2)])
    def test_profile_is_extrapolated_from_dt_and_half_dt(self, tmp_path, a, k):
        # Richardson's extrapolation in time, 2 v_{dt/2} - v_dt, of the
        # unchanged backward Euler march; it is not positive by construction,
        # so its negative part is bounded by roundoff instead
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": a},
                                                "experiment": {"k": k}})
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "heat.csv")
        v_fd = np.array([float(row[cols.index("v_fd")]) for row in rows])
        _, alpha, _ = build_table(constant_a_spectrum(3, a, k), k).row(k)
        full, half = (RadialSchema(N=3, alpha=alpha, R=30.0, M=1500, dt=dt)
                      for dt in (1e-2, 5e-3))
        v0 = flow.heat_self_similar(3, alpha, full.grid, 1.0)
        ref = 2.0 * evolve_heat(half, v0, 1.0) - evolve_heat(full, v0, 1.0)
        assert v_fd.tobytes() == ref.tobytes()
        assert np.min(v_fd) >= -1e-15 * np.max(v_fd)


class TestCompare:
    def test_free_quick(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0},
                            "experiment": {"mode": [0, 1], "fd_points": 3000}})
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--out", str(out),
                     "--expect", '{"l2_worst_max": 1e-3}'])
        assert code == 0
        report = json.loads((out / "compare.json").read_text())
        assert not report["comparison"]["failures"]

    def test_fd_error_equals_evolve_fd_error(self, tmp_path):
        # one route runner and one windowed error behind both commands
        grid = {"r_max": 10.0, "fd_points": 500, "dt": 1e-2, "window": [0.2, 6.0]}
        cfg = write_config(tmp_path, "e.json", {"problem": LOSS, "experiment": {
            "mode": [0, 1], "t": 1.0, "route": "fd", **grid}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [0, 1], "T": 1.0, **grid}})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
        evolve = json.loads((tmp_path / "e" / "summary.json").read_text())
        compare = json.loads((tmp_path / "c" / "compare.json").read_text())
        assert evolve["rel_l2_vs_closed"] == compare["comparison"]["l2_rel"]["closed_vs_fd"]

    def test_failed_route_writes_a_partial_report(self, tmp_path, capsys):
        # at T = 0.01 the log grid cannot resolve an n = 20 mode's phase
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [20, 1], "T": 0.01, "fd_points": 2000, "dt": 1e-3}})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 5
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("route representation failed: ResolutionError")
        assert lines[-1].startswith("numeric failure: ")
        comparison = json.loads((out / "compare.json").read_text())["comparison"]
        assert list(comparison["failures"]) == ["representation"]
        assert list(comparison["l2_rel"]) == ["closed_vs_fd"]

    def test_default_interpolation_error_below_fd_error(self, tmp_path):
        # representation_vs_fd reads the fd profile between its cells: at the
        # defaults that interpolation adds at most as much as the fd error
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS,
                                                "experiment": {"mode": [0, 1]}})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        l2_rel = json.loads((out / "compare.json").read_text())["comparison"]["l2_rel"]
        assert l2_rel["representation_vs_fd"] <= 2.0 * l2_rel["closed_vs_fd"]

    def test_defaults_recorded(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS,
                                                "experiment": {"mode": [0, 1]}})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        parameters = json.loads((out / "compare.json").read_text())["provenance"]["parameters"]
        assert {key: parameters[key] for key in ("T", "r_max", "fd_points", "dt", "window")} \
            == {"T": 1.0, "r_max": 30.0, "fd_points": 1500, "dt": 0.25, "window": [0.1, 8.0]}


@pytest.mark.parametrize("command, experiment", [
    ("evolve", {"mode": [0, 1], "t": 1.0}),
    ("decay", {"mode": [0, 1]}),
    ("compare", {"mode": [0, 1]}),
    # exit 0 with a kernel.csv built from the clamped alpha_1 = 0.5 before
    ("kernel", {"K": 4, "rho": [0.5], "x_dir": [0.1, 0.2], "y_dir": [0.3, 0.4]}),
    # exit 2 before, citing the rho = 0 rule against the clamped alpha_k = 0.5
    ("kernel", {"K": 4, "rho": [0.0, 0.5], "x_dir": [0.1, 0.2], "y_dir": [0.3, 0.4]}),
    # exit 2 before, on the alignment of K to the degree blocks
    ("kernel", {"K": 5, "path": "legendre_collapsed", "rho": [0.5], "x_dir": [0.1, 0.2],
                "y_dir": [0.3, 0.4]}),
    ("heat", {}),
])
def test_hardy_violation_exits_3(tmp_path, capsys, command, experiment):
    # a = -0.3 < -1/4 violates the Hardy condition at N=3; evolve, decay and
    # compare printed make_mode's own message before
    cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": -0.3},
                                            "experiment": experiment})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "Hardy condition violated: mu_1 <= -((N-2)/2)^2\n"
    assert not any(out.iterdir())


def test_hardy_violation_outranks_an_expectation_miss(tmp_path, capsys):
    # spectrum judged --expect against the clamped alpha_1 = 0.5 first, and exited 4
    cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": -0.3},
                                            "experiment": {"K": 4}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--expect", '{"alpha_1_max": 0.1}']) == 3
    assert capsys.readouterr().err == "Hardy condition violated: mu_1 <= -((N-2)/2)^2\n"
    _, _, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 4


def test_calls_in_one_process_share_no_arguments(tmp_path, capsys):
    # the parser is built once per process: a run, an argparse error, then a
    # run that would miss the first run's --expect and write to its --out
    first = write_config(tmp_path, "first.json", {"problem": LOSS, "experiment": {"K": 4}})
    out1 = tmp_path / "out1"
    assert main(["spectrum", "--config", first, "--out", str(out1),
                 "--expect", '{"alpha_1": 0.25, "alpha_1_tol": 1e-12}']) == 0
    written = (out1 / "spectrum.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--out", str(out1)])
    assert exc.value.code == 2
    out3 = tmp_path / "out3"
    last = write_config(tmp_path, "last.json", {"problem": {"N": 3, "a": 0.5},
                                                "experiment": {"K": 4},
                                                "output": {"dir": str(out3)}})
    capsys.readouterr()
    assert main(["spectrum", "--config", last]) == 0
    assert capsys.readouterr().err == ""
    assert (out1 / "spectrum.csv").read_bytes() == written
    _, _, rows = read_csv(out3 / "spectrum.csv")
    assert rows[0][1] == "0.5"


class TestUnderflowedReference:
    # the closed-form reference underflows to 0 on the whole grid: Infinity
    # and NaN relative errors were written with exit 0 before
    @pytest.mark.parametrize("command, experiment", [
        pytest.param("evolve", {"mode": [0, 1], "t": 1e160, "route": "fd", "dt": 1e160,
                                "fd_points": 100}, id="evolve fd"),
        pytest.param("heat", {"t0": 1, "t1": 1e300, "dt": 1e297, "fd_points": 100},
                     id="heat"),
    ])
    def test_numeric_failure_writes_nothing(self, tmp_path, capsys, command, experiment):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"N": 3, "a": 0.0}, "experiment": experiment})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert list(out.iterdir()) == []


class TestNonFiniteNorms:
    # r^400 overflows on the window: NaN sup norms passed decay_fit's
    # positivity check, and decay wrote a NaN slope with exit 0 before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_failure_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": {"N": 3, "a": 0.0}, "experiment": {
            "mode": [0, 1], "weight": 400, "window": [1e-3, 1e10],
            "times": {"lo_exp": 4, "hi_exp": 14}}})
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert list(out.iterdir()) == []

    # 1 + t^2 overflows past t ~ 1.34e154: both commands exited 5 with
    # "the radial value requires r > 0", which names no input
    @pytest.mark.parametrize("command, experiment", [
        ("decay", {"mode": [0, 1], "weight": 0.25, "times": [1, 10, 1e100, 1e160]}),
        ("evolve", {"mode": [0, 1], "t": 1e160, "route": "closed"}),
    ])
    def test_overflowing_time_is_named(self, tmp_path, capsys, command, experiment):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": experiment})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "t = 1e+160" in err
        assert list(out.iterdir()) == []

    # t^{-N/2 + alpha_k} overflows at t = 1e-300: heat exited 5 with
    # "(34, 'Numerical result out of range')", which names no input
    @pytest.mark.parametrize("experiment", [
        pytest.param({"fit_times": [1e-300, 1, 2, 3]}, id="fit_times"),
        pytest.param({"t0": 1e-300}, id="t0"),
    ])
    def test_overflowing_heat_time_is_named(self, tmp_path, capsys, experiment):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": experiment})
        out = tmp_path / "out"
        assert main(["heat", "--config", cfg, "--out", str(out)]) == 5
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("numeric failure:") and "t = 1e-300" in line
                   for line in lines)
        assert list(out.iterdir()) == []

    # r / sqrt(1 + t^2) underflows to 0 at r = 1e-300, t = 1e100: decay
    # exited 5 with "the radial value requires r > 0", which names no input
    def test_underflowing_radius_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": {
            "mode": [0, 1], "weight": 0.25, "window": [1e-300, 1.0],
            "times": [1, 10, 1e10, 1e100]}})
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "r = 1e-300, t = 1e+100" in err
        assert list(out.iterdir()) == []

    # 300^400 overflows: kernel warned, wrote inf to weighted_modulus and
    # exited 0 before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_weight_overflow_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": {
            **KERNEL, "rho": [0.5, 2.0, 300.0], "weight_exponent": 400}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert list(out.iterdir()) == []

    # 1e-200^-2 overflows, but |K(1e-200)| is about 1.6e-202, so the product
    # is about 1.6e198: the run exited 5 before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_finite_product_past_the_power_overflow(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": {
            **KERNEL, "k_start": 2, "rho": [1e-200, 1.0], "weight_exponent": -2}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out / "kernel.csv")
        modulus = abs(complex(float(rows[0][cols.index("re_K")]),
                              float(rows[0][cols.index("im_K")])))
        weighted = float(rows[0][cols.index("weighted_modulus")])
        assert 1e198 < weighted < 1e199
        assert weighted == pytest.approx(modulus * 1e200 * 1e200, rel=1e-12)


class TestNonFiniteAngularMatrix:
    # a flux of 1e300 overflows the circle matrix to inf: NaN comparisons
    # passed every eigensolve check, and spectrum wrote rows of nan and
    # exited 3 before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_failure_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"N": 2, "a": 0.1, "magnetic": {"0": 1e300}}, "experiment": {}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert list(out.iterdir()) == []


class TestCsv:
    def test_columns_written_as_rows_of_fmt_cells(self, tmp_path):
        # float and integer arrays, the columns every command writes: the
        # file must equal the one written row by row with _fmt on every cell
        rng = np.random.default_rng(7)
        f64 = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
        f64[:6] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 0.1]
        columns = {
            "f64": f64,
            "f32": rng.standard_normal(40).astype(np.float32),
            "i64": rng.integers(-10 ** 15, 10 ** 15, 40),
            "u8": np.arange(40, dtype=np.uint8),
        }
        provenance = {"tool": "schroflow", "version": "0.1.0", "command": "evolve",
                      "config_sha256": "0" * 64,
                      "parameters": {"N": 3, "a": -0.1875, "mode": [0, 1], "t": 1.0}}
        path = tmp_path / "x.csv"
        cli._write_csv(str(path), provenance, ["a note"], columns)
        lines = ["# schroflow 0.1.0", "# command: evolve", "# config_sha256: " + "0" * 64,
                 "# param N=3", "# param a=-0.1875", "# param mode=[0, 1]", "# param t=1.0",
                 "# a note", ",".join(columns)]
        lines += [",".join(cli._fmt(v) for v in row) for row in zip(*columns.values())]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("value", [1.01915, -0.0, math.nan, math.inf, 7])
    def test_scalar_column_is_the_full_column(self, tmp_path, value):
        # a scalar column is formatted once and written on every row, over
        # more than one block of rows
        provenance = {"tool": "schroflow", "version": "0.1.0", "command": "evolve",
                      "config_sha256": "0" * 64, "parameters": {"t": value}}
        r = np.geomspace(1e-3, 10.0, 2 * cli._CSV_BLOCK + 5)
        paths = [tmp_path / "scalar.csv", tmp_path / "full.csv"]
        for path, t in zip(paths, [value, np.full(len(r), value)]):
            cli._write_csv(str(path), provenance, [], {"t": t, "r": r})
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @staticmethod
    def edge_values():
        # every power of two and of ten, both float neighbours of each power
        # of ten, and the non-finite values and zeros, with both signs
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([twos, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                                 [np.nan, np.inf, 0.0, 5e-324]])
        return np.concatenate([values, -values])

    def test_edge_values_are_repr(self):
        x = self.edge_values()
        assert cli._cells(x) == list(map(repr, x.tolist()))

    def test_edge_values_written_as_repr(self, tmp_path):
        # more than one block of rows
        x = self.edge_values()
        assert len(x) > cli._CSV_BLOCK
        provenance = {"tool": "schroflow", "version": "0.1.0", "command": "evolve",
                      "config_sha256": "0" * 64, "parameters": {}}
        path = tmp_path / "edges.csv"
        cli._write_csv(str(path), provenance, [], {"x": x, "minus_x": -x})
        lines = ["# schroflow 0.1.0", "# command: evolve", "# config_sha256: " + "0" * 64,
                 "x,minus_x"] + [f"{v!r},{-v!r}" for v in x.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.floats(width=64, allow_nan=True, allow_infinity=True)))
    def test_any_float64_array_is_repr(self, x):
        assert cli._cells(x) == list(map(repr, x.tolist()))

    def test_strided_and_float32_arrays_are_repr(self):
        rng = np.random.default_rng(3)
        z = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 10.0 ** rng.integers(-9, 20, 64)
        assert not z.real.flags.c_contiguous
        assert cli._cells(z.real) == list(map(repr, z.real.tolist()))
        f32 = (rng.standard_normal(64) * 10.0 ** rng.integers(-40, 38, 64)).astype(np.float32)
        f32[:3] = [np.nan, -np.inf, 3e-5]
        assert cli._cells(f32) == [repr(float(v)) for v in f32]


FREE = {"N": 3, "a": 0.0}
KERNEL = {"K": 4, "rho": [0.5, 2.0], "x_dir": [0.4, 0.3], "y_dir": [1.2, 2.1]}
FD = {"mode": [0, 1], "t": 1.0, "route": "fd", "fd_points": 500, "dt": 1e-2}


class TestConfigErrors:
    @pytest.mark.parametrize("command, config", [
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "rho": {"lo": [1], "hi": 2.0, "n": 4}}}, id="rho.lo list"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "r_max": "x"}},
                     id="r_max string"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "fd_points": "many"}},
                     id="fd_points string"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "window": 3}},
                     id="evolve window scalar"),
        pytest.param("decay", {"problem": FREE, "experiment": {
            "mode": [0, 1], "times": ["a", "b"]}}, id="times strings"),
        pytest.param("decay", {"problem": FREE, "experiment": {"mode": [0, 1], "window": 5}},
                     id="decay window scalar"),
        pytest.param("kernel", {"problem": FREE, "experiment": {**KERNEL, "K": "x"}},
                     id="K string"),
        pytest.param("kernel", {"problem": FREE, "experiment": {**KERNEL, "x_dir": "north"}},
                     id="x_dir string"),
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "x_dir": [0.1, 0.2, 0.3, 0.4]}}, id="x_dir 4 numbers"),
        pytest.param("compare", {"problem": FREE, "experiment": {
            "mode": [0, 1], "window": [1, 2, 3]}}, id="compare window 3 numbers"),
        pytest.param("heat", {"problem": {"N": 2, "a": {"0": 0.1}}}, id="heat N=2 Fourier a"),
        pytest.param("heat", {"problem": {"N": 2, "magnetic": {"0": 0.3}}},
                     id="heat N=2 magnetic"),
        pytest.param("compare", {"problem": {"N": 2, "magnetic": {"0": 0.3}},
                                 "experiment": {"mode": [0, 1]}}, id="compare N=2 magnetic"),
        pytest.param("spectrum", {"problem": FREE, "output": {"dir": 5}}, id="output.dir number"),
        # accepted silently before
        pytest.param("kernel", {"problem": FREE, "experiment": {**KERNEL, "K": True}},
                     id="K true"),
        pytest.param("spectrum", {"problem": {**FREE, "truncation": 8}}, id="truncation N=3"),
        pytest.param("spectrum", {"problem": {**FREE, "magnetic": {"0": 0.3}}},
                     id="magnetic N=3"),
        pytest.param("spectrum", {"problem": {"N": 3, "a": {"0": 0.1}}}, id="Fourier a N=3"),
        # a real coefficient function has c_{-q} = conj(c_q)
        pytest.param("spectrum", {"problem": {"N": 2, "a": {"1": 0.3}}},
                     id="a not conjugate-symmetric"),
        # the later value overwrote the earlier one: a Fourier index given
        # twice once the keys are read as integers
        pytest.param("spectrum", {"problem": {"N": 2, "magnetic": {"0": 0.25, "+0": 0.4}}},
                     id="magnetic index given twice"),
        pytest.param("spectrum", {"problem": {"N": 2, "a": {"1": 0.3, "01": 0.05, "-1": 0.05}}},
                     id="a index given twice"),
        # silently ignored before: keys that the evolve route does not read
        pytest.param("evolve", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 1.0, "route": "kernel", "dt": 0.5}}, id="kernel route dt"),
        pytest.param("evolve", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 1.0, "route": "kernel", "fd_points": 7}},
                     id="kernel route fd_points"),
        pytest.param("evolve", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 1.0, "window": [100, 200]}}, id="closed route window"),
        # tracebacks or numeric failures before: dimensions and directions
        # the command does not support
        pytest.param("kernel", {"problem": {"N": 4, "a": 0.0}, "experiment": KERNEL},
                     id="kernel N=4"),
        pytest.param("decay", {"problem": {"N": 4, "a": 0.0}, "experiment": {"mode": [0, 1]}},
                     id="decay N=4"),
        pytest.param("kernel", {"problem": FREE, "experiment": {**KERNEL, "x_dir": 0.4}},
                     id="x_dir angle N=3"),
        # numeric failures (exit 5) or silently accepted before: values of
        # the right type out of their range
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "dt": 0}}, id="dt 0"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "r_max": -1}},
                     id="r_max -1"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "fd_points": 1}},
                     id="fd_points 1"),
        pytest.param("heat", {"problem": FREE, "experiment": {"fd_points": 2}},
                     id="fd_points 2"),
        pytest.param("evolve", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 0, "route": "kernel"}}, id="kernel route t 0"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "t": -1.0}},
                     id="fd route t -1"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "window": [8, 0.1]}},
                     id="evolve window reversed"),
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "rho": {"lo": 0, "hi": 2.0, "n": 4}}}, id="log rho.lo 0"),
        pytest.param("kernel", {"problem": FREE, "experiment": {**KERNEL, "rho": [-1.0, 2.0]}},
                     id="rho negative"),
        pytest.param("decay", {"problem": FREE, "experiment": {"mode": [0, 1], "window": [2, 1]}},
                     id="decay window reversed"),
        pytest.param("decay", {"problem": FREE, "experiment": {
            "mode": [0, 1], "times": {"lo_exp": 5, "hi_exp": 2}}}, id="times lo_exp > hi_exp"),
        pytest.param("decay", {"problem": FREE, "experiment": {
            "mode": [0, 1], "times": {"lo_exp": 0, "hi_exp": 512}}}, id="times hi_exp past cap"),
        pytest.param("decay", {"problem": FREE, "experiment": {
            "mode": [0, 1], "times": [1, 2, 4, 4]}}, id="times repeated"),
        pytest.param("heat", {"problem": FREE, "experiment": {"fit_times": [1, 2, 3]}},
                     id="fit_times 3 values"),
        pytest.param("heat", {"problem": FREE, "experiment": {"t0": 2.0, "t1": 1.0}},
                     id="heat t0 > t1"),
        pytest.param("heat", {"problem": FREE, "experiment": {"t0": 1.0, "t1": 1.0}},
                     id="heat t0 = t1"),
        pytest.param("compare", {"problem": FREE, "experiment": {"mode": [0, 1], "T": 0}},
                     id="compare T 0"),
        # the heat residual window is fixed: these invalid residual blocks,
        # refused by range checks before, are now refused as an unknown key
        pytest.param("heat", {"problem": FREE, "experiment": {"residual": {"r_window": 5}}},
                     id="residual.r_window scalar"),
        pytest.param("heat", {"problem": FREE, "experiment": {"residual": {"dr": 0}}},
                     id="residual.dr 0"),
        pytest.param("heat", {"problem": LOSS, "experiment": {
            "residual": {"r_window": [0.001, 5.0]}}}, id="residual r_window lo below dr"),
        pytest.param("heat", {"problem": LOSS, "experiment": {
            "residual": {"t_window": [1e-4, 2.0]}}}, id="residual t_window lo at dt"),
        # NaN with exit 0, or numeric failures, before: windows that hold no
        # grid node
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "window": [100, 200]}},
                     id="evolve fd window past r_max"),
        pytest.param("evolve", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 1.0, "route": "kernel", "r_max": 10.0, "window": [100, 200]}},
                     id="evolve kernel window past r_max"),
        pytest.param("compare", {"problem": FREE, "experiment": {
            **SMALL_RUNS["compare"], "window": [100, 200]}}, id="compare window past r_max"),
        pytest.param("compare", {"problem": FREE, "experiment": {
            **SMALL_RUNS["compare"], "window": [0.395, 0.405]}},
                     id="compare window between fd cells"),
        # silently marched round(T/dt) steps before: durations that are not
        # a whole number of fd steps
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "t": 1.0004, "dt": 1e-3}},
                     id="fd route t 1.0004"),
        pytest.param("evolve", {"problem": FREE, "experiment": {**FD, "t": 0.0004, "dt": 1e-3}},
                     id="fd route t 0.0004"),
        pytest.param("heat", {"problem": FREE, "experiment": {**SMALL_RUNS["heat"], "t1": 2.005}},
                     id="heat t1 - t0 2.005"),
        pytest.param("compare", {"problem": FREE, "experiment": {
            **SMALL_RUNS["compare"], "T": 1.005}}, id="compare T 1.005"),
        # numeric failures (exit 5) before: kernel series the Legendre path
        # cannot collapse, and a zero radius under a negative weight
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "K": 5, "path": "legendre_collapsed"}},
                     id="legendre K not whole degree blocks"),
        pytest.param("kernel", {"problem": {"N": 2, "a": 0.1}, "experiment": {
            **KERNEL, "x_dir": 0.4, "y_dir": 1.2, "path": "legendre_collapsed"}},
                     id="legendre N=2"),
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "rho": [0.0, 1.0], "weight_exponent": -1}},
                     id="rho 0 with negative weight"),
        # numeric failure (exit 5) before: the series has no value at rho = 0
        # when a mode has alpha_k > 0
        pytest.param("kernel", {"problem": LOSS, "experiment": {
            **KERNEL, "path": "mode_sum", "rho": [0.0, 1.0]}}, id="rho 0 with positive alpha"),
        # nan with exit 0, or read as another direction, before: malformed
        # kernel directions
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "x_dir": [0, 0, 0]}}, id="x_dir zero vector"),
        pytest.param("kernel", {"problem": FREE, "experiment": {
            **KERNEL, "y_dir": [0.0, 0.0, 0.0], "path": "legendre_collapsed"}},
                     id="y_dir zero vector legendre"),
        pytest.param("kernel", {"problem": {"N": 2, "a": 0.1}, "experiment": {
            **KERNEL, "x_dir": [0.4, 0.3, 5.0], "y_dir": 1.2}}, id="x_dir 3-vector N=2"),
        pytest.param("kernel", {"problem": {"N": 2, "a": 0.1}, "experiment": {
            **KERNEL, "x_dir": 0.4, "y_dir": [1.0, 0.0]}}, id="y_dir list N=2"),
    ])
    def test_malformed_value_exit_code(self, tmp_path, monkeypatch, capsys, command, config):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    # settings that no run gave a value other than their default are
    # constants; their keys, given even that value, are refused as unknown
    @pytest.mark.parametrize("command, experiment, where, key", [
        pytest.param("evolve", {"mode": [0, 1], "t": 1.0, "quad_panels": 125},
                     "experiment", "quad_panels", id="closed route quad_panels"),
        pytest.param("evolve", {"mode": [0, 1], "t": 1.0, "quad_nodes": 16},
                     "experiment", "quad_nodes", id="closed route quad_nodes"),
        pytest.param("evolve", {"mode": [0, 1], "t": 1.0, "route": "kernel", "quad_nodes": 16},
                     "experiment", "quad_nodes", id="kernel route quad_nodes"),
        pytest.param("evolve", {**FD, "quad_panels": 125}, "experiment", "quad_panels",
                     id="fd route quad_panels"),
        pytest.param("compare", {**SMALL_RUNS["compare"], "quad_panels": 125},
                     "experiment", "quad_panels", id="compare quad_panels"),
        pytest.param("heat", {"fit_ratio": 1.0}, "experiment", "fit_ratio",
                     id="heat fit_ratio"),
        pytest.param("heat", {"residual": {"dr": 0.005}}, "experiment", "residual",
                     id="heat residual"),
        pytest.param("kernel", {**KERNEL, "rho": {"lo": 0.5, "hi": 2.0, "n": 4,
                                                  "spacing": "log"}},
                     "experiment.rho", "spacing", id="kernel rho.spacing"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, command, experiment, where, key):
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": experiment})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: unknown keys in {where}: {key}\n"

    @pytest.mark.parametrize("text, expect", [
        ('{"problem": {"N": 2, "magnetic": {"0": 0.25, "0": 0.4}}}', "{}"),
        ('{"problem": {"N": 3, "a": 0.0}, "experiment": {"K": 2, "K": 3}}', "{}"),
        ('{"problem": {"N": 3, "a": -0.1875}}', '{"alpha_1": 0.25, "alpha_1": 9}'),
    ], ids=["Fourier index", "experiment key", "expect key"])
    def test_key_given_twice_exit_code(self, tmp_path, capsys, text, expect):
        # json keeps the last value of a repeated key: the run went on with it
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path),
                     "--expect", expect]) == 2
        assert capsys.readouterr().err.startswith("config error: the key")

    @pytest.mark.parametrize("route", ["closed", "kernel"])
    def test_duration_rule_only_on_the_fd_route(self, tmp_path, route):
        # t is not a whole number of steps of the fd route's default dt 0.25
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": {
            "mode": [0, 1], "t": 1.0004, "route": route}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, key", [("evolve", "t"), ("compare", "T")])
    def test_fd_duration_off_the_default_step_names_dt(self, tmp_path, capsys, command, key):
        # at the default dt 0.25 an fd-route duration is a multiple of 0.25
        cfg = write_config(tmp_path, "c.json", {"problem": FREE, "experiment": {
            "mode": [0, 1], key: 0.33, **({"route": "fd"} if command == "evolve" else {})}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: experiment.{key}: duration 0.33 is not a whole number >= 0 "
            "of steps dt = 0.25\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, experiment", [
        pytest.param("evolve", {**FD, "window": [100, 200]}, id="evolve fd"),
        pytest.param("evolve", {"mode": [0, 1], "t": 1.0, "route": "kernel",
                                "window": [100, 200]}, id="evolve kernel"),
        pytest.param("compare", {**SMALL_RUNS["compare"], "window": [100, 200]},
                     id="compare"),
    ])
    def test_window_checked_before_the_route_runs(self, tmp_path, capsys, command, experiment):
        # the route runs; the window is checked where it is measured, before
        # any artifact is written
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS, "experiment": experiment})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: experiment.window")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("expect", [
        '{"alpha_1": 0, "alpha_1_tol": "x"}', '{"alpha_1_max": "x"}',
        # a tolerance with no value checked nothing (exit 0), and one beside
        # a misspelt name left the value at tolerance 0 (exit 4)
        '{"alpha_1_tol": 0.02}', '{"alpha_1": 0.24, "alpha1_tol": 0.02}',
        # a negative tolerance failed every value (exit 4)
        '{"alpha_1": 0.25, "alpha_1_tol": -0.01}',
        # not an object, and names that no command measures
        '[1]', '{"nope": 1}', '{"nope_max": 1}',
    ])
    def test_non_numeric_expectation_exit_code(self, tmp_path, capsys, expect):
        cfg = write_config(tmp_path, "c.json", {"problem": LOSS})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--expect", expect]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("text, out", [
        pytest.param('{"problem": {"N": 3,', "out", id="invalid JSON config"),
        pytest.param('{"problem": {"N": 3, "a": 0.0}}', "c.json/out", id="out below a file"),
    ])
    def test_unusable_config_or_out_exit_code(self, tmp_path, capsys, text, out):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_explicit_out_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json",
                           {"problem": LOSS, "output": {"dir": "elsewhere"}})
        assert main(["spectrum", "--config", cfg, "--out", "."]) == 0
        assert (tmp_path / "spectrum.csv").exists()
        assert not (tmp_path / "elsewhere").exists()


def _json_type(value):
    for name, kind in (("bool", bool), ("number", (int, float)), ("string", str),
                       ("list", list), ("object", dict)):
        if isinstance(value, kind):
            return name
    return "null"


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# values of every JSON type but number; a list or object holds no number, so
# it can never stand for a mode, a size or a grid
_WRONG = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.one_of(st.text(max_size=3), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_mistyped_value_exits_2(tmp_path_factory, data):
    """Any one key of a small valid config, at top level or nested, replaced by
    a value of another JSON type, is a config error (exit 2), never a crash."""
    command = data.draw(st.sampled_from(sorted(SMALL_RUNS)))
    config = json.loads(json.dumps({"problem": LOSS, "experiment": SMALL_RUNS[command],
                                    "output": {"dir": "out"}}))
    path = data.draw(st.sampled_from(list(_key_paths(config))))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(_WRONG.filter(lambda v: _json_type(v) != _json_type(old)))
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(tmp, "c.json", config)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(tmp / "out")])
    assert code == 2, (path, parent[path[-1]], err.getvalue())
    assert err.getvalue().startswith("config error:")
