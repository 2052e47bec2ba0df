import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstream import cli, oracle, update_rule
from ellipstream.update_rule import RoundingState

SRC = Path(__file__).resolve().parents[1] / "src"


_PAD = st.sampled_from(["", "", "", "", " ", "\t", " \t "])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(
    _FINITE.map(lambda x: "%.17g" % x),
    _FINITE.map(repr),
    st.tuples(st.integers(-999, 999), st.integers(0, 99)).map(
        lambda t: f"{t[0]}.{t[1]:02d}"),
    st.integers(-10**20, 10**20).map(str),
)
_SPECIAL = st.sampled_from(["inf", "nan", "-Infinity", ""])


@st.composite
def csv_texts(draw):
    """CSV text that parse_points may accept or refuse: padded fields,
    comments, blank and whitespace-only lines, CRLF ends, ragged rows,
    empty fields and trailing commas."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 5 + ["blank", "space", "comment"]))
        if kind == "row":
            count = draw(st.sampled_from([dim] * 12 + [dim + 1, max(dim - 1, 1)]))
            fields = [draw(_PAD)
                      + draw(_SPECIAL if draw(st.integers(0, 29)) == 0 else _NUMBER)
                      + draw(_PAD) for _ in range(count)]
            line = ",".join(fields) + draw(
                st.sampled_from([""] * 8 + [",", " # inline, 1,2", "  #"]))
        elif kind == "space":
            line = draw(st.sampled_from([" ", "\t", " \t "]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# x,y", "  # 1,2", "#"]))
        else:
            line = ""
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "no data" stays inside
            with pytest.raises(cli.InputError, match="no points"):
                cli.parse_points(str(f))

    @pytest.mark.parametrize("bad", ["nan", "1e400"])
    def test_non_finite_field_reports_line(self, tmp_path, capsys, bad):
        f = tmp_path / "p.csv"
        f.write_text(f"# header\n\n1,2\n3,4\n{bad},5\n")
        with pytest.raises(cli.InputError, match="^non-finite field at line 5$"):
            cli.parse_points(str(f))
        assert cli.main(["--mode", "verify", "--input", str(f),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: non-finite field at line 5\n"

    @staticmethod
    def outcome(parse, arg):
        """The array's shape and bits, or the InputError message; any
        warning fails the test."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pts = parse(arg)
            except cli.InputError as exc:
                return str(exc)
        return pts.shape, pts.view(np.int64).tobytes()

    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_matches_line_loop(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("parse") / "p.csv"
        f.write_text(text, encoding="utf-8", newline="")
        assert self.outcome(cli.parse_points, str(f)) == \
            self.outcome(cli._parse_lines, f.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("text, expected", [
        ("1_0,2\n", [[10.0, 2.0]]),
        ("\u0661,2\n", [[1.0, 2.0]]),           # ARABIC-INDIC DIGIT ONE
        ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("\ufeff1,2\n", "non-numeric field at line 1"),
        # float() strips a form feed, but splitlines() ends the line there
        ("1,\f2\n", "non-numeric field at line 1"),
    ], ids=["underscore", "arabic-digit", "whitespace-line", "bom", "form-feed"])
    def test_fixed_cases(self, tmp_path, text, expected):
        f = tmp_path / "p.csv"
        f.write_text(text, encoding="utf-8")
        got = self.outcome(cli.parse_points, str(f))
        assert got == self.outcome(cli._parse_lines, text)
        if isinstance(expected, str):
            assert got == expected
        else:
            want = np.asarray(expected)
            assert got == (want.shape, want.view(np.int64).tobytes())

    def test_clean_file_skips_line_loop(self, tmp_path, monkeypatch):
        pts = np.random.default_rng(3).standard_normal((3000, 3))
        f = tmp_path / "p.csv"
        np.savetxt(f, pts, fmt="%.17g", delimiter=",")

        def loop(text):
            raise AssertionError("clean file sent through the line loop")

        monkeypatch.setattr(cli, "_parse_lines", loop)
        assert np.array_equal(cli.parse_points(str(f)).view(np.int64),
                              pts.view(np.int64))

    @pytest.mark.parametrize("last, message", [
        ("1,x,3", "non-numeric field at line 3002"),
        ("1,2", "ragged row at line 3002: expected 3 fields, got 2"),
        ("1,inf,3", "non-finite field at line 3002"),
    ])
    def test_bad_last_line_of_long_file(self, tmp_path, last, message):
        f = tmp_path / "p.csv"
        np.savetxt(f, np.random.default_rng(3).standard_normal((3000, 3)),
                   fmt="%.17g", delimiter=",", header="x,y,z")
        with f.open("a") as fh:
            fh.write(last + "\n")
        with pytest.raises(cli.InputError) as exc:
            cli.parse_points(str(f))
        assert str(exc.value) == message


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

    def test_seeded_needs_seed_ball(self):
        with pytest.raises(cli.InputError, match="seeded mode needs --c0 and --r0"):
            cli.RunConfig(mode="seeded", gen="ball")

    def test_unknown_mode(self):
        with pytest.raises(cli.InputError):
            cli.RunConfig(mode="banana", gen="ball")

    def test_defaults_are_the_config_fields(self, monkeypatch):
        # an option not given on the command line takes RunConfig's default
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        assert cli.main(["--mode", "online", "--gen", "ball"]) == 0
        assert seen == [cli.RunConfig("online", gen="ball")]

    def test_c0_text_is_parsed(self):
        config = cli.RunConfig("seeded", gen="ball", c0="0,1.5,-2", r0=0.5)
        assert config.c0.tolist() == [0.0, 1.5, -2.0]


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

    @pytest.mark.parametrize("c0", ["0,x,0", "0,,0", ""])
    def test_bad_c0_exits_1(self, tmp_path, capsys, c0):
        assert self.run_cli(tmp_path, "--mode", "seeded", "--gen", "gaussian",
                            "--d", "3", "--c0", c0, "--r0", "0.1") == 1
        assert capsys.readouterr().err == "error: --c0 must be comma-separated numbers\n"
        assert not (tmp_path / "report.json").exists()

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

    def test_coreset_certifies_kept_steps(self, tmp_path):
        assert self.run_cli(tmp_path, "--mode", "coreset", "--gen", "lattice",
                            "--d", "3", "--n", "500") == 0
        selected = (tmp_path / "selected.txt").read_text().split()
        certs = json.loads((tmp_path / "report.json").read_text())["certificates"]
        # every kept step but the first point's init
        assert certs["checked"] == len(selected) - 1 == 5
        assert certs["failures"] == 0

    @pytest.mark.parametrize("mode", ["online", "seeded", "coreset", "verify"])
    def test_every_stream_mode_certifies(self, tmp_path, mode):
        seed_ball = ["--c0", "0,0,0", "--r0", "0.1"] if mode == "seeded" else []
        assert self.run_cli(tmp_path, "--mode", mode, "--gen", "gaussian",
                            "--d", "3", "--n", "200", "--seed", "1",
                            "--verify-every", "1", *seed_ball) == 0
        certs = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert certs["checked"] > 0 and certs["failures"] == 0

    def test_adversary_mode(self, tmp_path):
        code = self.run_cli(tmp_path, "--mode", "adversary", "--d", "3",
                            "--R", "8")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificates"]["stop_reason"] == "volume_reached"

    def test_verify_rejects_negative_every(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "--mode", "verify", "--gen", "gaussian",
                            "--d", "3", "--n", "50", "--verify-every", "-2") == 1
        assert "--verify-every must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_adversary_rejects_non_finite_radius(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "--mode", "adversary", "--d", "3",
                            "--R", "nan") == 1
        assert "--R must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("args, flag", [
        (("--mode", "adversary", "--d", "3", "--R", "8", "--verify-every", "1"), "--verify-every"),
        (("--mode", "adversary", "--d", "3", "--R", "8", "--gen", "ball"), "--gen"),
        (("--mode", "adversary", "--d", "3", "--input", "points.csv"), "--input"),
        (("--mode", "inequalities", "--verify-every", "2"), "--verify-every"),
        (("--mode", "inequalities", "--gen", "ball"), "--gen"),
    ], ids=["adversary-verify-every", "adversary-gen", "adversary-input",
            "inequalities-verify-every", "inequalities-gen"])
    def test_streamless_modes_refuse_stream_flags(self, tmp_path, capsys, args, flag):
        assert self.run_cli(tmp_path, *args) == 1
        assert capsys.readouterr().err == \
            f"error: {args[1]} mode reads no stream; it takes no {flag}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("args, message", [
        (("--mode", "seeded", "--gen", "gaussian", "--d", "3", "--c0", "0,0", "--r0", "0.1"),
         "--c0 dimension does not match the points"),
        (("--mode", "online", "--gen", "gaussian", "--d", "0"), "d, n, and N must be positive"),
    ], ids=["c0-dimension", "non-positive-d"])
    def test_refusals_exit_1(self, tmp_path, capsys, args, message):
        assert self.run_cli(tmp_path, *args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_inequalities_mode(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["--mode", "inequalities", "--out", str(out)]) == 0
        report = json.loads((a / "report.json").read_text())
        claims = [r.claim_id for r in oracle.inequality_suite()]
        assert sorted(report["certificates"]) == sorted(claims + ["reduced_case"])
        assert report["constants"]["grid_points"] == 61824
        for name in ("report.json", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_rho_exit_code(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text("0,0\n1,0\n0,1\n1e200,1e200\n")
        assert self.run_cli(tmp_path, "--mode", "online", "--input", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: numerical limit at step t=4:")


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
        assert certs["worst_margin"] < -oracle.MONOTONE_TOL
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


@pytest.mark.parametrize("g", [1e-12, 1e-11, 1e-10])
def test_two_axis_drop_verifies(tmp_path, g):
    # two near-duplicates of z0 make a rank-2 body whose axes the span
    # raise toward z0 + e3 drops, so the next outer body has lower rank
    # than the previous one; the span test alone decides its containment
    z0 = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.eye(4)
    pts = np.vstack([z0, z0 + g * e[0], z0 + g * e[1], z0 + e[2],
                     np.random.default_rng(0).standard_normal((40, 4))])
    path = tmp_path / "drop.csv"
    np.savetxt(path, pts, fmt="%.17g", delimiter=",")
    assert cli.main(["--mode", "verify", "--input", str(path),
                     "--out", str(tmp_path)]) == 0
    certs = json.loads((tmp_path / "report.json").read_text())["certificates"]
    assert certs["failures"] == 0 and math.isfinite(certs["worst_margin"])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_verify_exits_2_when_the_final_body_misses_a_point(tmp_path):
    # scaled by 1e160 the span test's squares overflow, so every point after
    # the first is taken for a skip: no step fails, but the final body, a
    # single point, misses the rest of the stream
    pts = np.random.default_rng(5).standard_normal((400, 5)) * 1e160
    path = tmp_path / "huge.csv"
    np.savetxt(path, pts, fmt="%.17g", delimiter=",")
    assert cli.main(["--mode", "verify", "--input", str(path),
                     "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["certificates"]["failures"] == 0
    assert report["constants"]["worst_final_margin"] > oracle.MONOTONE_TOL


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


def test_certificates_make_no_second_split(tmp_path):
    # a certificate builds its frame from the split the kernel made for the
    # step, so certifying every step splits as often as certifying none.
    # Calls are counted by code object, whatever name a caller binds
    g = np.random.default_rng(8).standard_normal((600, 6))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    path = tmp_path / "drift.csv"
    np.savetxt(path, g * np.exp(0.005 * np.arange(1, 601))[:, None], fmt="%.17g",
               delimiter=",")
    split_code, counts = update_rule._split.__code__, {}

    def count(frame, event, arg):
        if event == "call" and frame.f_code is split_code:
            counts[every] += 1

    for every in (1, 0):
        counts[every], out = 0, tmp_path / str(every)
        old = sys.getprofile()
        sys.setprofile(count)
        try:
            exit_code = cli.run(cli.RunConfig(mode="verify", input_path=str(path), out=str(out),
                                              verify_every=every))
        finally:
            sys.setprofile(old)
        assert exit_code == 0
        checked = json.loads((out / "report.json").read_text())["certificates"]["checked"]
        assert (checked > 300) if every else checked == 0
    assert counts[1] == counts[0] > 0


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
        # the same points read from a %.17g CSV file write the same bytes
        path, out = tmp_path / "points.csv", tmp_path / "from_input"
        np.savetxt(path, pts, fmt="%.17g", delimiter=",")
        argv[argv.index("--gen"):argv.index("--seed") + 2] = ["--input", str(path)]
        argv[argv.index("--out") + 1] = str(out)
        assert cli.main(argv) == 0
        names = ["report.json", "trace.csv"] + ["selected.txt"] * (mode == "coreset")
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
