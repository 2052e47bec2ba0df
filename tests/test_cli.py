import json
import math
import os
import subprocess
import sys
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from ellipstream import cli, oracle, update_rule
from ellipstream.state import RoundingState

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParsePoints:
    def test_two_2d_points(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,0\n0,1\n")
        pts = cli.parse_points(str(f))
        assert pts.shape == (2, 2)
        assert np.array_equal(pts, [[1.0, 0.0], [0.0, 1.0]])

    def test_comment_and_blank_lines(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("# c\n1,2,3\n\n")
        pts = cli.parse_points(str(f))
        assert pts.shape == (1, 3)

    def test_inline_comment(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,2 # trailing\n3,4\n")
        assert cli.parse_points(str(f)).shape == (2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,2\n1\n")
        with pytest.raises(cli.InputError, match="line 2"):
            cli.parse_points(str(f))

    def test_non_numeric_reports_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,2\nx,3\n")
        with pytest.raises(cli.InputError, match="line 2"):
            cli.parse_points(str(f))

    def test_missing_file(self):
        with pytest.raises(cli.InputError):
            cli.parse_points("/nonexistent/file.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("# only a comment\n")
        with pytest.raises(cli.InputError, match="no points"):
            cli.parse_points(str(f))


class TestGenerate:
    def test_ball_inside_unit_ball_and_deterministic(self):
        a = cli.generate("ball", 2, 3, seed=7)
        b = cli.generate("ball", 2, 3, seed=7)
        assert np.array_equal(a, b)
        assert np.all(np.linalg.norm(a, axis=1) <= 1.0)

    def test_lattice_integer_coordinates(self):
        pts = cli.generate("lattice", 3, 200, seed=1, lattice_n=5)
        assert np.array_equal(pts, np.round(pts))
        assert pts.min() >= -5 and pts.max() <= 5

    def test_gaussian_shape(self):
        assert cli.generate("gaussian", 4, 10, seed=0).shape == (10, 4)

    def test_simplex_shell_replays_adversary(self):
        pts = cli.generate("simplex-shell", 3, 100, seed=0, r_big=16.0)
        # the first d+1 points are the simplex vertices at norm d
        assert np.allclose(np.linalg.norm(pts[:4], axis=1), 3.0, atol=1e-9)

    def test_unknown_generator(self):
        with pytest.raises(cli.InputError):
            cli.generate("torus", 2, 10, seed=0)


class TestRunConfig:
    def test_requires_one_source(self):
        with pytest.raises(cli.InputError):
            cli.RunConfig(mode="online")
        with pytest.raises(cli.InputError):
            cli.RunConfig(mode="online", gen="ball", input_path="x.csv")

    def test_verify_every_default_tracks_dimension(self):
        small = cli.RunConfig(mode="online", gen="ball", d=4)
        big = cli.RunConfig(mode="online", gen="ball", d=12)
        assert small.effective_verify_every == 1
        assert big.effective_verify_every == 0

    def test_unknown_mode(self):
        with pytest.raises(cli.InputError):
            cli.RunConfig(mode="banana", gen="ball")


class TestRun:
    def run_cli(self, tmp_path, *args):
        return cli.main(list(args) + ["--out", str(tmp_path)])

    def test_online_writes_reports(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "online", "--gen", "gaussian",
                            "--d", "3", "--n", "40", "--seed", "5")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"mode", "d", "n", "final_alpha_inv", "steps",
                               "certificates", "constants"}
        assert report["n"] == 40
        assert len(report["steps"]) == 40
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,kind,alpha_inv,log_vol,gamma"

    def test_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["--mode", "online", "--gen", "ball", "--d", "3",
                      "--n", "60", "--seed", "11", "--out", str(out)])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_report_round_trips(self, tmp_path):
        self.run_cli(tmp_path, "--mode", "online", "--gen", "gaussian",
                     "--d", "2", "--n", "30", "--seed", "1")
        raw = (tmp_path / "report.json").read_text()
        parsed = json.loads(raw)
        assert cli.to_json(parsed) + "\n" == raw

    def test_lattice_logs_empirical_constant(self, tmp_path):
        self.run_cli(tmp_path, "--mode", "online", "--gen", "lattice",
                     "--d", "2", "--n", "100", "--N", "10", "--seed", "3")
        report = json.loads((tmp_path / "report.json").read_text())
        c = report["constants"]["c_empirical"]
        assert c == pytest.approx(
            report["final_alpha_inv"] / (2 * math.log(20)))

    def test_seeded_requires_seed_ball(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "seeded", "--gen", "ball",
                            "--d", "2", "--n", "10")
        assert code == 1

    def test_online_rejects_seed_ball(self, tmp_path, capsys):
        args = ("--mode", "online", "--gen", "gaussian", "--d", "3")
        assert self.run_cli(tmp_path, *args, "--c0", "0,0,0",
                            "--r0", "0.1") == 1
        assert "online mode takes no --c0" in capsys.readouterr().err
        assert self.run_cli(tmp_path, *args, "--r0", "0.1") == 1
        assert "online mode takes no --r0" in capsys.readouterr().err

    def test_verify_rejects_lone_r0(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "--mode", "verify", "--gen", "gaussian",
                            "--d", "3", "--n", "50", "--r0", "0.1") == 1
        assert "--r0 needs --c0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_coreset_rejects_seed_ball(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "--mode", "coreset", "--gen", "gaussian",
                            "--d", "3", "--c0", "0,0,0", "--r0", "0.1") == 1
        assert "coreset mode takes no --c0" in capsys.readouterr().err
        assert not (tmp_path / "selected.txt").exists()

    def test_seeded_runs(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "seeded", "--gen", "gaussian",
                            "--d", "3", "--n", "50", "--seed", "2",
                            "--c0", "0,0,0", "--r0", "0.3")
        assert code == 0

    def test_coreset_writes_selection(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "coreset", "--gen", "gaussian",
                            "--d", "3", "--n", "80", "--seed", "4")
        assert code == 0
        sel = [int(x) for x in
               (tmp_path / "selected.txt").read_text().split()]
        assert sel == sorted(sel)
        assert sel[0] == 1

    def test_adversary_mode(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "adversary", "--d", "3",
                            "--R", "8")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificates"]["stop_reason"] == "volume_reached"

    def test_verify_mode_on_clean_stream(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "verify", "--gen", "gaussian",
                            "--d", "3", "--n", "50", "--seed", "6")
        assert code == 0

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code = cli.main(["--mode", "online", "--input", str(bad),
                         "--out", str(tmp_path)])
        assert code == 1

    def test_numerical_limit_exit_code(self, tmp_path, capsys):
        # the first coordinate grows by e^30 over the stream
        z = np.random.default_rng(0).standard_normal((4000, 3))
        z[:, 0] *= np.exp(np.linspace(0.0, 30.0, 4000))
        path = tmp_path / "grow.csv"
        np.savetxt(path, z, fmt="%.17g", delimiter=",")
        code = self.run_cli(tmp_path, "--mode", "online", "--input", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: numerical limit at step t=")
        assert "s_max/s_min" in err


class TestVerifyResolution:
    """A span raise toward a near-duplicate a few thousand ulps away is
    resolution-limited: its margins lie within the rounding of the bodies'
    coordinates, so verify names it and exits 0; a real violation of the
    same step still exits 2."""

    @staticmethod
    def stream(tmp_path, g):
        z0 = np.array([1.0, 2.0, 3.0])
        pts = np.vstack([z0, z0 + g * np.eye(3)[0], z0 + np.eye(3)[1],
                         np.random.default_rng(0).standard_normal((50, 3))])
        path = tmp_path / "near.csv"
        np.savetxt(path, pts, fmt="%.17g", delimiter=",")
        return ["--mode", "verify", "--input", str(path), "--out", str(tmp_path)]

    @pytest.mark.parametrize("g", [3e-13, 1e-12])
    def test_near_duplicate_raise_is_resolution_limited(self, tmp_path, capsys, g):
        assert cli.main(self.stream(tmp_path, g)) == 0
        certs = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert certs["resolution_limited"] == 1 and certs["failures"] == 0
        assert certs["worst_margin"] < -cli.MONOTONE_TOL
        assert "step t=2 (irregular): certificate resolution-limited" in capsys.readouterr().err

    def test_shifted_raised_center_fails(self, tmp_path, monkeypatch):
        raise_ = update_rule._irregular

        def shifted(state, z, split):
            new = raise_(state, z, split)
            if state.dim:
                return new
            return RoundingState(new.center + 1e-6, new.basis, new.factor, new.inverse,
                                 new.alpha, new.log_volume)

        monkeypatch.setattr(update_rule, "_irregular", shifted)
        assert cli.main(self.stream(tmp_path, 3e-13)) == 2
        certs = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert certs["failures"] >= 1 and certs["resolution_limited"] == 0


def test_verify_decomposes_only_on_fallback(tmp_path, monkeypatch):
    # the closed-form certificate needs no SVD view: a verify run makes at
    # most two per step the sampled path checks, plus the final margin's
    sys.path.insert(0, str(SRC.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(SRC.parent / "perfbench"))
    w = workloads.WORKLOADS["audit-file"]
    inputs = workloads.make_inputs(replace(w, substreams=1), 3, tmp_path)
    counts = {"svd": 0, "fallback": 0}
    svd, sampled = np.linalg.svd, oracle._sampled_margins

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_sampled(*args):
        counts["fallback"] += 1
        return sampled(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(oracle, "_sampled_margins", counted_sampled)
    code = cli.main(["--mode", "verify", "--input", str(inputs.csv_paths[0]),
                     "--out", str(tmp_path)])
    assert code == 0
    checked = json.loads((tmp_path / "report.json").read_text())["certificates"]["checked"]
    assert checked > 300
    assert counts["svd"] <= 2 * counts["fallback"] + 1


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the package, the adversary's shell
    # search fallback and a verify run must not import it
    script = """
import sys
sys.modules["scipy"] = None
import numpy as np
import ellipstream
from ellipstream import cli
from ellipstream.adversary import library_rule, run_adversary, shell_point
st = ellipstream.RoundingState.from_ellipsoid(
    ellipstream.Ellipsoid.ball(np.array([3.0, 3.0]), 1.0), alpha=0.5)
assert shell_point(st, r_cap=2.5) is not None
assert run_adversary(library_rule, 3, 8.0).stop_reason == "volume_reached"
code = cli.main(["--mode", "verify", "--gen", "gaussian", "--d", "4",
                 "--n", "60", "--seed", "2", "--out", sys.argv[1]])
assert code == 0, code
assert sys.modules["scipy"] is None
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr


class TestJsonFormatter:
    def test_sorted_keys_and_17_digits(self):
        out = cli.to_json({"b": 1.0 / 3.0, "a": 1})
        assert out.index('"a"') < out.index('"b"')
        assert "0.33333333333333331" in out

    def test_float_round_trip(self):
        rng = np.random.default_rng(8)
        for x in rng.standard_normal(100) * 10.0**rng.integers(-8, 8, 100):
            assert float(json.loads(cli.to_json(float(x)))) == x


class TestStepTexts:
    """report.json's steps and trace.csv come from one row template per
    run of records; they must equal the generic per-record output."""

    @staticmethod
    def generic_csv(steps):
        lines = ["t,kind,alpha_inv,log_vol,gamma"]
        for s in steps:
            lines.append(",".join([str(s["t"]), s["kind"], cli._fmt(s["alpha_inv"]),
                                   cli._fmt(s["log_vol"]), cli._fmt(s["gamma"])]))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mode", ["online", "seeded", "coreset", "verify"])
    def test_bytes_equal_generic_output(self, tmp_path, mode):
        from ellipstream import coreset, streaming
        d, n = 3, 700
        argv = ["--mode", mode, "--gen", "gaussian", "--d", str(d), "--n", str(n),
                "--seed", "5", "--out", str(tmp_path)]
        if mode == "seeded":
            argv += ["--c0", "0,0,0", "--r0", "0.3"]
        assert cli.main(argv) == 0
        pts = cli.generate("gaussian", d, n, 5)
        if mode == "seeded":
            _, report = streaming.run_seeded(pts, np.zeros(d), 0.3)
        elif mode == "coreset":
            _, report = coreset.run_coreset(pts)
        else:
            _, report = streaming.run_fully_online(pts)
        # long skip runs make the run-length path matter
        assert max(count for _, count in report.runs) > 50
        steps = [{"t": r.t, "kind": r.step_kind, "alpha_inv": 1.0 / r.alpha,
                  "log_vol": r.log_volume, "gamma": r.gamma}
                 for r in report.records]
        raw = (tmp_path / "report.json").read_text()
        payload = json.loads(raw)
        payload["steps"] = steps
        assert cli.to_json(payload) + "\n" == raw
        assert (tmp_path / "trace.csv").read_text() == self.generic_csv(steps)
