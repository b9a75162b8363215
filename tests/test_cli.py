"""End-to-end CLI behavior: artifacts, determinism, checkpoint/resume."""

import configparser
import csv
import io
import math
import re
from dataclasses import fields

import pytest

from paulievo import FixedK, TfimParams, Threshold, WeightCutoff, bdg_ground_energy
from paulievo import TrajectoryRecord, load_pauli_sum, save_pauli_sum
from paulievo import cli
from paulievo.cli import (
    CONFIG_SECTIONS,
    ConfigError,
    RunConfig,
    _coerce,
    make_parser,
    parse_number,
    parse_policy,
    policy_text,
    write_config_echo,
)
from paulievo.oracle import DENSE_BYTES_BUDGET

from helpers import read_config_echo, read_rows, run_cli


class TestPolicyParsing:
    def test_power_notation(self):
        assert parse_number("2^-7") == 2 ** -7
        assert parse_number("2**-7") == 2 ** -7
        assert parse_number("0.25") == 0.25

    def test_single_policies(self):
        assert parse_policy("none") is None
        assert parse_policy("threshold=2^-7") == Threshold(2 ** -7)
        assert parse_policy("fixed_k=100") == FixedK(100)
        assert parse_policy("weight=4") == WeightCutoff(4)

    def test_combined(self):
        combo = parse_policy("threshold=0.01,fixed_k=10")
        assert combo == [Threshold(0.01), FixedK(10)]

    @pytest.mark.parametrize("text, named", [
        ("10^400", "float range"),
        ("2**1e400", "float range"),
        ("1e400", "float range"),
        ("-8^0.5", "not a real number"),
    ])
    def test_overflow_and_complex_rejected(self, text, named):
        from paulievo.cli import ConfigError
        with pytest.raises(ConfigError, match=named):
            parse_number(text)

    def test_round_trip_text(self):
        for spec in ("none", "threshold=0.0078125", "fixed_k=7", "weight=3"):
            assert policy_text(parse_policy(spec)) == spec

    def test_invalid(self):
        from paulievo.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_policy("magic=1")

    @pytest.mark.parametrize("spec", ["fixed_k=2.5", "weight=2.7",
                                      "threshold=0.01,fixed_k=inf",
                                      "fixed_k=-2", "weight=-1"])
    def test_fractional_counts_rejected(self, spec):
        from paulievo.cli import ConfigError
        with pytest.raises(ConfigError, match="whole number"):
            parse_policy(spec)
        assert parse_policy("fixed_k=2^4") == FixedK(16)


class TestConfigSchema:
    FULL = RunConfig(kind="terms", N=7, J=0.3, h=2 ** -7,
                     terms_file="model.txt", delta_tau=0.01, tau_final=1.5,
                     truncation="threshold=0.01,fixed_k=9",
                     observables="ZZ,X", out_dir="runs/x",
                     checkpoint_every=3, record_per_gate=True,
                     stop_after_step=5, dense_guard=9)

    def test_sections_name_every_field_once(self):
        keys = [key for section in CONFIG_SECTIONS.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
        assert len(keys) == len(set(keys))

    def test_every_field_has_a_run_itpp_flag(self):
        # run-itpp, exact and sweep take the same setting flags
        names = {f.name for f in fields(RunConfig)}
        for argv in (["run-itpp"], ["exact"],
                     ["sweep", "--axis", "N", "--values", "3"]):
            args = make_parser().parse_args(argv)
            assert names <= set(vars(args))
            assert {key: getattr(args, key) for key in names} == \
                dict.fromkeys(names)

    def test_columns_follow_the_record_fields(self):
        # the record's fields in order, then its observable values
        names = [f.name for f in fields(TrajectoryRecord)]
        assert len(names) == len(cli.COLUMNS) + 1
        assert names[-1] == "observable_values"

    @pytest.mark.parametrize("command",
                             ["run-itpp", "exact", "bdg", "sweep", "resume"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--help"])
        assert exit_.value.code == 0
        assert "usage: paulievo " + command in capsys.readouterr().out

    def test_flags_reach_coerce_as_text(self):
        argv = ["run-itpp"]
        names = [f.name for f in fields(RunConfig)
                 if f.name not in ("kind", "record_per_gate")]
        for name in names:
            argv += ["--" + name.replace("_", "-"), "2^2"]
        args = make_parser().parse_args(argv)
        assert {name: getattr(args, name) for name in names} == \
            dict.fromkeys(names, "2^2")

    @pytest.mark.parametrize("cfg", [RunConfig(), FULL],
                             ids=["default", "every-field"])
    def test_echo_round_trip(self, tmp_path, cfg):
        path = tmp_path / "config.ini"
        write_config_echo(cfg, str(path))
        assert read_config_echo(str(path)) == cfg

    def test_echo_bytes_match_interpolating_writer(self, tmp_path):
        # with no '%' in any value, turning interpolation off changes no
        # byte of the echo
        path = tmp_path / "config.ini"
        write_config_echo(self.FULL, str(path))
        interpolating = configparser.ConfigParser()
        interpolating.optionxform = str
        for section, keys in CONFIG_SECTIONS.items():
            interpolating.add_section(section)
            for key in keys:
                interpolating.set(section, key, str(getattr(self.FULL, key)))
        text = io.StringIO()
        interpolating.write(text)
        assert path.read_text() == text.getvalue()

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("YES", True), (" On ", True),
        ("0", False), ("False", False), ("no", False), ("OFF", False),
    ])
    def test_boolean_spellings(self, text, value):
        assert _coerce("record_per_gate", text) is value

    @pytest.mark.parametrize("text", ["maybe", "", "2", "y"])
    def test_other_booleans_rejected(self, text):
        with pytest.raises(ConfigError, match="record_per_gate"):
            _coerce("record_per_gate", text)

    @pytest.mark.parametrize("key, text, value", [
        ("N", "2^2", 4), ("dense_guard", "1e1", 10), ("J", "2^-1", 0.5),
        ("tau_final", "2**3", 8.0), ("out_dir", " x ", " x "),
    ])
    def test_numbers_share_one_rule(self, key, text, value):
        assert _coerce(key, text) == value

    @pytest.mark.parametrize("key", ["N", "checkpoint_every",
                                     "stop_after_step", "dense_guard"])
    def test_counts_whole_and_non_negative(self, key):
        for text in ("-1", "2.5", "inf"):
            with pytest.raises(ConfigError, match="non-negative whole"):
                _coerce(key, text)


class TestRunItpp:
    def test_artifacts_and_initial_record(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_rows(out / "trajectory.csv")
        assert header[0] == "# schema: itpp-trajectory v1"
        assert any("tau_convention" in h for h in header)
        assert rows[0][0] == "0.0"
        assert rows[0][1] == "0.0"  # Tr[H]/2^n of the traceless TFIM
        assert rows[0][3] == "1"   # single identity term
        assert (out / "summary.txt").exists()
        assert (out / "config.ini").exists()

    @pytest.mark.parametrize("spec, named", [
        ("threshold=nan", "nan"),
        ("fixed_k=2.5", "fixed_k=2.5"),
        ("weight=2.7", "weight=2.7"),
        ("fixed_k=-2", "non-negative whole number"),
    ])
    def test_bad_truncation_value_exits_2(self, tmp_path, spec, named):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--truncation", spec, "--out-dir", str(out))
        assert res.returncode == 2
        assert named in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--truncation", "threshold=10^400"), "float range"),
        (("--truncation", "threshold=-8^0.5"), "not a real number"),
        (("--delta-tau", "10^400"), "10^400"),
        (("--delta-tau", "10^400"), "float range"),
        (("--J", "10^400"), "float range"),
    ])
    def test_unrepresentable_number_exits_2(self, tmp_path, flags, named):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2", *flags,
                      "--out-dir", str(out))
        assert res.returncode == 2
        assert named in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--stop-after-step", "-1"), "stop_after_step"),
        (("--checkpoint-every", "-3"), "checkpoint_every"),
        (("--dense-guard", "-1"), "dense_guard"),
    ])
    def test_negative_count_exits_2(self, tmp_path, flags, named):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2", *flags,
                      "--out-dir", str(out))
        assert res.returncode == 2
        assert named in res.stderr
        assert "non-negative whole number" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--tau-final", "inf"), "tau_final must be finite and >= 0, not inf"),
        (("--delta-tau", "nan"),
         "delta_tau must be finite and positive, not nan"),
        (("--delta-tau", "inf"),
         "delta_tau must be finite and positive, not inf"),
        (("--h", "inf"), "coefficient -inf of"),
        (("--kind", "terms", "--dense-guard", "2"), "coefficient nan of ZZI"),
    ], ids=["tau-final-inf", "delta-tau-nan", "delta-tau-inf", "h-inf",
            "terms-file-nan"])
    def test_non_finite_schedule_or_model_exits_2(self, tmp_path, flags,
                                                  named):
        terms = tmp_path / "model.txt"
        terms.write_text("nan ZZI\n-1.0 XII\n")
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2", *flags,
                      "--terms-file", str(terms), "--out-dir", str(out))
        assert res.returncode == 2
        assert named in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_angle_past_cosh_range_exits_2(self, tmp_path):
        # 18000 * 0.04 = 720 lies past the 710.48 where cosh overflows
        terms = tmp_path / "model.txt"
        terms.write_text("18000 ZZ\n1 XI\n")
        res = run_cli("run-itpp", "--kind", "terms", "--terms-file",
                      str(terms), "--delta-tau", "0.04", "--out-dir",
                      str(tmp_path / "run"))
        assert res.returncode == 2
        assert ("error: imaginary angle tau_eff = 720.0 of generator ZZ "
                "has no finite cosh") in res.stderr
        assert "Traceback" not in res.stderr

    def test_zero_reference_leaves_rel_error_empty(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--J", "0", "--h", "0",
                      "--tau-final", "0.08", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_rows(out / "trajectory.csv")
        assert "# reference_energy: 0.0 (source: ed)" in header
        assert [cells[2] for cells in rows] == ["", "", ""]
        assert "final_rel_error = \n" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("name, named", [
        ("nothere.txt", "cannot read terms_file: [Errno 2]"),
        (" model.txt", "no blank at either end, not ' model.txt'"),
        ("model.txt ", "no blank at either end, not 'model.txt '"),
    ], ids=["missing", "leading-blank", "trailing-blank"])
    def test_unusable_terms_file_exits_2(self, tmp_path, name, named):
        # the files with blanks exist, so only their names are refused
        for existing in ("model.txt", " model.txt", "model.txt "):
            (tmp_path / existing).write_text("-1.0 Z\n")
        res = run_cli("run-itpp", "--kind", "terms", "--terms-file", name,
                      "--tau-final", "0.12", "--out-dir", "run",
                      cwd=tmp_path)
        assert res.returncode == 2
        assert named in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "run").exists()

    def test_power_notation_flag_matches_decimal(self, tmp_path):
        a, b = tmp_path / "power", tmp_path / "decimal"
        for out, j in ((a, "2^-1"), (b, "0.5")):
            res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                          "--J", j, "--out-dir", str(out))
            assert res.returncode == 0, res.stderr
        assert read_rows(a / "trajectory.csv") == \
            read_rows(b / "trajectory.csv")
        assert (a / "config.ini").read_text() == \
            (b / "config.ini").read_text().replace(str(b), str(a))

    def test_rerun_byte_identical_mod_wall_time(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = run_cli("run-itpp", "--N", "4", "--tau-final", "0.4",
                          "--truncation", "threshold=2^-6",
                          "--out-dir", str(out))
            assert res.returncode == 0, res.stderr
        assert read_rows(a / "trajectory.csv") == read_rows(b / "trajectory.csv")

    def test_worker_env_does_not_change_results(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        for out, workers in ((a, "1"), (b, "4")):
            res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                          "--out-dir", str(out),
                          env_extra={"PAULIEVO_WORKERS": workers})
            assert res.returncode == 0, res.stderr
        assert read_rows(a / "trajectory.csv") == read_rows(b / "trajectory.csv")

    def test_trace_collapse_flushes_partial(self, tmp_path):
        out = tmp_path / "collapse"
        res = run_cli("run-itpp", "--N", "2", "--tau-final", "1.0",
                      "--truncation", "threshold=10", "--out-dir", str(out))
        assert res.returncode == 1
        header, rows = read_rows(out / "trajectory.csv")
        assert len(rows) == 1  # the tau=0 record was flushed
        summary = (out / "summary.txt").read_text()
        assert "status = trace-collapse" in summary

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\nkind = tfim\nN = 3\nJ = 1.0\nh = 0.5\n"
            "[schedule]\ndelta_tau = 0.04\ntau_final = 0.2\n"
            "[truncation]\ntruncation = none\n"
        )
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--config", str(cfg), "--N", "4",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        summary = (out / "summary.txt").read_text()
        assert "model = tfim N=4" in summary

    def test_percent_in_out_dir(self, tmp_path):
        out = tmp_path / "run%1"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        echo = out / "config.ini"
        assert f"out_dir = {out}\n" in echo.read_text()
        assert read_config_echo(str(echo)).out_dir == str(out)

    def test_config_file_percent_taken_literally(self, tmp_path):
        out = tmp_path / "a%%b%(N)s"
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[model]\nN = 3\n[schedule]\ntau_final = 0.2\n"
                       f"[output]\nout_dir = {out}\n")
        res = run_cli("run-itpp", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert (out / "trajectory.csv").exists()

    def test_config_power_notation_count(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[model]\nN = 2^2\n[schedule]\ntau_final = 0.2\n")
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert "model = tfim N=4 " in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("text", ["maybe", "2"])
    def test_config_boolean_validated(self, tmp_path, text):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[run]\nrecord_per_gate = {text}\n")
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--config", str(cfg), "--N", "3",
                      "--tau-final", "0.2", "--out-dir", str(out))
        assert res.returncode == 2
        assert "record_per_gate" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ("[model]\nflavor = strange\n", "flavor"),
        ("[model]\nN = 3\n[schedul]\ntau_final = 0.08\n", "[schedul]"),
        ("[DEFAULT]\ntau_final = 0.08\n", "[DEFAULT]"),
        ("[model]\nN = 3\nN = 4\n", "already exists"),
        ("N = 3\n", "no section headers"),
    ], ids=["unknown-key", "unknown-section", "default-section",
            "repeated-key", "no-section-header"])
    def test_unknown_config_key_rejected(self, tmp_path, text, named):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "x"
        res = run_cli("run-itpp", "--config", str(cfg), "--out-dir", str(out))
        assert res.returncode == 2
        assert named in res.stderr and str(cfg) in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_term_file_model(self, tmp_path):
        terms = tmp_path / "model.txt"
        terms.write_text("-1.0 Z\n")
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--kind", "terms", "--terms-file",
                      str(terms), "--delta-tau", "0.1", "--tau-final", "0.5",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        _, rows = read_rows(out / "trajectory.csv")
        assert float(rows[-1][1]) == pytest.approx(-math.tanh(0.5), abs=1e-12)

    def test_observable_columns(self, tmp_path):
        out = tmp_path / "obs"
        terms = tmp_path / "m.txt"
        terms.write_text("-1.0 Z\n")
        res = run_cli("run-itpp", "--kind", "terms", "--terms-file",
                      str(terms), "--delta-tau", "0.1", "--tau-final", "0.3",
                      "--observables", "Z", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_rows(out / "trajectory.csv")
        assert header[-1].endswith("obs:Z")
        assert float(rows[-1][6]) == pytest.approx(math.tanh(0.3), abs=1e-12)


    @pytest.mark.parametrize("stop, status", [
        ("5", "completed"),  # every step of tau 0.2 ran
        ("3", "interrupted"),
    ])
    def test_stop_at_last_step_is_completed(self, tmp_path, stop, status):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--stop-after-step", stop, "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(f"status = {status}\n")
        assert f"status = {status}\n" in (out / "summary.txt").read_text()
        assert f"\nstep = {stop}\n" in (out / "checkpoint.psum").read_text()


class TestResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        full, inter = tmp_path / "full", tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.6",
                      "--truncation", "threshold=2^-8",
                      "--out-dir", str(full))
        assert res.returncode == 0, res.stderr
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.6",
                      "--truncation", "threshold=2^-8",
                      "--stop-after-step", "7", "--out-dir", str(inter))
        assert res.returncode == 0, res.stderr
        assert "status = interrupted" in (inter / "summary.txt").read_text()
        res = run_cli("resume", str(inter))
        assert res.returncode == 0, res.stderr
        assert read_rows(full / "trajectory.csv") == \
            read_rows(inter / "trajectory.csv")

    def test_resume_without_checkpoint_fails(self, tmp_path):
        out = tmp_path / "plain"
        run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                "--out-dir", str(out))
        res = run_cli("resume", str(out))
        assert res.returncode == 2

    @pytest.mark.parametrize("old, new, message", [
        ("delta_tau = 0.04", "delta_tau = 0.02", "tau"),
        ("N = 4", "N = 5", "qubits"),
    ])
    def test_checkpoint_config_mismatch_rejected(self, tmp_path, old, new,
                                                 message):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "4", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        config = out / "config.ini"
        assert old in config.read_text()
        config.write_text(config.read_text().replace(old, new))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert message in res.stderr
        # nothing in the run directory was rewritten
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("n_terms", ["1000000000000000", "-3"])
    def test_checkpoint_row_count_rejected(self, tmp_path, n_terms):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        ckpt = out / "checkpoint.psum"
        text = ckpt.read_text()
        count = re.search(r"^n_terms = \d+$", text, re.MULTILINE).group(0)
        ckpt.write_text(text.replace(count, f"n_terms = {n_terms}"))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert f"n_terms = {n_terms}" in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_missing_step_header_named(self, tmp_path):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        ckpt = out / "checkpoint.psum"
        text = ckpt.read_text()
        assert "\nstep = 5\n" in text
        ckpt.write_text(text.replace("\nstep = 5\n", "\n"))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert "no 'step = ' header" in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "row", ["\n", "abc,-1.0,,3,1.0\n", "nan,1,2,3\n", "inf,1,2,3\n"],
        ids=["blank", "text-tau", "nan-tau", "inf-tau"])
    def test_unreadable_trajectory_row_named(self, tmp_path, row):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.12",
                      "--stop-after-step", "1", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        traj = out / "trajectory.csv"
        with traj.open("a") as f:
            f.write(row)
        lineno = len(traj.read_text().splitlines())
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert f"error: {traj}:{lineno}: " in res.stderr
        assert "Traceback" not in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("cut", ["deleted", "shortened"])
    def test_trajectory_short_of_checkpoint_refused(self, tmp_path, cut):
        # the trajectory is written when a run ends, so a run killed after a
        # checkpoint leaves none, or an older one that stops before it
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--stop-after-step", "2", "--checkpoint-every", "1",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        traj = out / "trajectory.csv"
        if cut == "deleted":
            traj.unlink()
            named = f"{traj} is missing; the checkpoint is at step 2 (tau 0.08)"
        else:
            lines = traj.read_text().splitlines(keepends=True)
            traj.write_text("".join(lines[:-1]))
            named = (f"{traj} has no row at the checkpoint's step 2 "
                     "(tau 0.08); its last tau is 0.04")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert f"error: {named}\n" in res.stderr
        assert "Traceback" not in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_negative_stop_exits_2(self, tmp_path):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out), "--stop-after-step", "-1")
        assert res.returncode == 2
        assert "stop_after_step" in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_index_overflow_exits_2(self, tmp_path):
        """Resume a run whose checkpoint holds the largest index that leaves
        no room for the next gate's."""
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        ckpt = out / "checkpoint.psum"
        state, extras = load_pauli_sum(str(ckpt))
        top = 2 ** 63 - 2
        state._indices[-1] = top
        save_pauli_sum(state, str(ckpt), extras)
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert f"error: largest insertion index {top}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_checkpoint_resumes_to_uninterrupted_bytes(self, tmp_path):
        """A run stopped at a checkpoint resumes to the same trajectory and
        final checkpoint bytes as the uninterrupted run."""
        flags = ("--N", "6", "--truncation", "fixed_k=64", "--tau-final",
                 "0.4", "--checkpoint-every", "2")
        full, inter = tmp_path / "full", tmp_path / "inter"
        res = run_cli("run-itpp", *flags, "--out-dir", str(full))
        assert res.returncode == 0, res.stderr
        res = run_cli("run-itpp", *flags, "--stop-after-step", "4",
                      "--out-dir", str(inter))
        assert res.returncode == 0, res.stderr
        _, extras = load_pauli_sum(str(inter / "checkpoint.psum"))
        assert extras == {"step": "4", "tau": repr(4 * 0.04)}
        res = run_cli("resume", str(inter))
        assert res.returncode == 0, res.stderr
        final = (full / "checkpoint.psum").read_bytes()
        assert "\nstep = 10\n" in final.decode()
        assert read_rows(inter / "trajectory.csv") == \
            read_rows(full / "trajectory.csv")
        assert (inter / "checkpoint.psum").read_bytes() == final

    def test_v1_checkpoint_refused(self, tmp_path):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--stop-after-step", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        ckpt = out / "checkpoint.psum"
        text = ckpt.read_text()
        assert text.startswith("# pauli-sum v2\n")
        ckpt.write_text(text.replace("v2", "v1", 1))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("resume", str(out))
        assert res.returncode == 2
        assert ("error: checkpoint format pauli-sum v1 is no longer read; "
                "paulievo at commit 130b57c") in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("run_dir, resume_dir", [
        ("part", "moved"), (" lead", " lead")])
    def test_resume_writes_into_the_given_directory(self, tmp_path, run_dir,
                                                    resume_dir):
        """Every artifact lands in the directory resumed, wherever the run
        started and whatever blanks its name holds; no other directory is
        made."""
        flags = ("--N", "3", "--tau-final", "0.12")
        full, work = tmp_path / "full", tmp_path / "work"
        work.mkdir()
        res = run_cli("run-itpp", *flags, "--out-dir", str(full))
        assert res.returncode == 0, res.stderr
        res = run_cli("run-itpp", *flags, "--stop-after-step", "1",
                      "--out-dir", run_dir, cwd=work)
        assert res.returncode == 0, res.stderr
        (work / run_dir).rename(work / resume_dir)
        res = run_cli("resume", resume_dir, cwd=work)
        assert res.returncode == 0, res.stderr
        out = work / resume_dir
        assert [p.name for p in work.iterdir()] == [resume_dir]
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.psum", "config.ini", "summary.txt", "trajectory.csv"]
        assert "status = completed" in (out / "summary.txt").read_text()
        assert read_rows(out / "trajectory.csv") == \
            read_rows(full / "trajectory.csv")

    def test_checkpoint_written_once_per_step(self, tmp_path, monkeypatch):
        steps = []
        save = cli.save_pauli_sum

        def counting_save(state, path, extras):
            steps.append(extras["step"])
            save(state, path, extras)

        monkeypatch.setattr(cli, "save_pauli_sum", counting_save)
        out = tmp_path / "ckpt"
        assert cli.main(["run-itpp", "--N", "3", "--tau-final", "0.4",
                         "--checkpoint-every", "2", "--stop-after-step", "4",
                         "--out-dir", str(out)]) == 0
        assert steps == [2, 4]
        assert "status = interrupted" in (out / "summary.txt").read_text()

    def test_periodic_checkpoints_written(self, tmp_path):
        out = tmp_path / "ckpt"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--checkpoint-every", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "checkpoint.psum").exists()
        first = (out / "checkpoint.psum").read_text().splitlines()
        assert first[0] == "# pauli-sum v2"

    def test_resume_at_final_step_keeps_final_values(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--checkpoint-every", "5", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        keys = ("final_tau", "final_energy", "final_rel_error",
                "final_n_terms", "final_purity", "max_n_terms")

        def finals():
            lines = (out / "summary.txt").read_text().splitlines()
            return {k: v for k, _, v in (line.partition(" = ")
                                         for line in lines) if k in keys}

        before = finals()
        assert set(before) == set(keys)
        res = run_cli("resume", str(out))
        assert res.returncode == 0, res.stderr
        assert finals() == before
        assert res.stdout == (
            "status = completed\n"
            f"final_energy = {before['final_energy']}\n"
            f"final_n_terms = {before['final_n_terms']}\n"
        )

    def test_resume_trace_collapse_reports_error(self, tmp_path):
        out = tmp_path / "inter"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.2",
                      "--stop-after-step", "2", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        config = out / "config.ini"
        text = config.read_text()
        assert "truncation = none\n" in text
        config.write_text(text.replace("truncation = none\n",
                                       "truncation = threshold=10\n"))
        res = run_cli("resume", str(out))
        assert res.returncode == 1
        assert "error: trace collapsed at Trotter step 3" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout.startswith("status = trace-collapse\n")
        assert "status = trace-collapse" in (out / "summary.txt").read_text()

    def test_resume_per_gate_matches_uninterrupted(self, tmp_path):
        full, inter = tmp_path / "full", tmp_path / "inter"
        flags = ("--N", "4", "--tau-final", "0.4", "--record-per-gate")
        res = run_cli("run-itpp", *flags, "--out-dir", str(full))
        assert res.returncode == 0, res.stderr
        res = run_cli("run-itpp", *flags, "--stop-after-step", "3",
                      "--out-dir", str(inter))
        assert res.returncode == 0, res.stderr
        _, partial = read_rows(inter / "trajectory.csv")
        res = run_cli("resume", str(inter))
        assert res.returncode == 0, res.stderr
        _, rows = read_rows(full / "trajectory.csv")
        assert len(rows) == 1 + 10 * 7  # tau=0, then 7 gates per step
        assert len(partial) == 1 + 3 * 7
        assert read_rows(inter / "trajectory.csv") == \
            read_rows(full / "trajectory.csv")


class TestExact:
    def test_single_qubit_energy_column(self, tmp_path):
        terms = tmp_path / "m.txt"
        terms.write_text("-1.0 Z\n")
        out = tmp_path / "curves"
        res = run_cli("exact", "--kind", "terms", "--terms-file", str(terms),
                      "--delta-tau", "0.1", "--tau-final", "0.5",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        for name in ("exact_ite.csv", "trotter_ite.csv"):
            _, rows = read_rows(out / name)
            for cells in rows:
                tau, energy = float(cells[0]), float(cells[1])
                assert energy == pytest.approx(-math.tanh(tau), abs=1e-12)

    def test_guard_exceeded(self, tmp_path):
        # 13 qubits would hold five 1 GiB arrays at once: each method is
        # refused before it allocates one, and no CSV is written
        for method in ("exact", "trotter", "both"):
            out = tmp_path / method
            res = run_cli("exact", "--N", "13", "--tau-final", "0.04",
                          "--method", method, "--out-dir", str(out))
            assert res.returncode == 1
            assert "guard" in res.stderr
            assert f"{5 * 16 * 4 ** 13} bytes" in res.stderr
            assert f"budget of {DENSE_BYTES_BUDGET} bytes" in res.stderr
            assert not out.exists()

    def test_flags_match_config_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[truncation]\ntruncation = threshold=2^-7\n"
                       "[run]\nobservables = ZIII\n")
        common = ("exact", "--N", "4", "--tau-final", "0.4")
        for flags, out in (
            (("--observables", "ZIII", "--truncation", "threshold=2^-7"),
             "flags"),
            (("--config", str(cfg)), "file"),
        ):
            res = run_cli(*common, *flags, "--out-dir", str(tmp_path / out))
            assert res.returncode == 0, res.stderr
        for name in ("exact_ite.csv", "trotter_ite.csv"):
            text = (tmp_path / "flags" / name).read_text()
            assert text == (tmp_path / "file" / name).read_text()
            assert "# policy: threshold=0.0078125\n" in text
            assert ",obs:ZIII\n" in text

    def test_overlay_matches_run_itpp(self, tmp_path):
        out_run = tmp_path / "run"
        out_exact = tmp_path / "exact"
        for cmd in (
            ("run-itpp", "--N", "3", "--tau-final", "0.4",
             "--out-dir", str(out_run)),
            ("exact", "--N", "3", "--tau-final", "0.4", "--method", "trotter",
             "--out-dir", str(out_exact)),
        ):
            res = run_cli(*cmd)
            assert res.returncode == 0, res.stderr
        _, run_rows = read_rows(out_run / "trajectory.csv")
        _, tr_rows = read_rows(out_exact / "trotter_ite.csv")
        assert len(run_rows) == len(tr_rows)
        for a, b in zip(run_rows, tr_rows):
            assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-10)

    def test_header_and_empty_cells_match_run_itpp(self, tmp_path):
        flags = ("--N", "4", "--tau-final", "0.4")
        res = run_cli("run-itpp", *flags, "--out-dir", str(tmp_path / "run"))
        assert res.returncode == 0, res.stderr
        res = run_cli("exact", *flags, "--out-dir", str(tmp_path / "exact"))
        assert res.returncode == 0, res.stderr
        run_header, _ = read_rows(tmp_path / "run" / "trajectory.csv")
        for name in ("exact_ite.csv", "trotter_ite.csv"):
            header, rows = read_rows(tmp_path / "exact" / name,
                                     blank_wall_time=False)
            assert header == run_header
            assert len(rows) == 11
            for cells in rows:
                assert len(cells) == 6
                assert cells[3] == "" and cells[5] == ""


class TestBdg:
    def test_decoupled_value(self):
        res = run_cli("bdg", "--N", "5", "--J", "0", "--h", "1")
        assert res.returncode == 0
        assert "= -5.0" in res.stdout

    def test_csv_export(self, tmp_path):
        path = tmp_path / "e0.csv"
        res = run_cli("bdg", "--N", "2,4,12", "--csv", str(path))
        assert res.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "N,J,h,E0"
        assert len(lines) == 4
        n, j, h, e0 = lines[1].split(",")
        assert float(e0) == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_matches_library(self):
        res = run_cli("bdg", "--N", "12")
        value = float(res.stdout.split("=")[-1])
        assert value == pytest.approx(
            bdg_ground_energy(TfimParams(N=12, J=1.0, h=0.5)), abs=1e-12
        )

    def test_invalid_n(self):
        res = run_cli("bdg", "--N", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("n, named", [
        ("1e400", "float range"),
        ("2.5", "whole number"),
        ("4,2.5", "whole number"),
    ])
    def test_unusable_n_exits_2(self, n, named):
        res = run_cli("bdg", "--N", n)
        assert res.returncode == 2
        assert named in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


    @pytest.mark.parametrize("flags, named", [
        (("--J", "10^400"), "float range"),
        (("--h=-8^0.5",), "not a real number"),
        (("--N", "-3"), "non-negative whole number"),
    ])
    def test_unusable_flag_exits_2(self, flags, named):
        res = run_cli("bdg", "--N", "4", *flags)
        assert res.returncode == 2
        assert named in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


class TestSweep:
    def test_threshold_axis(self, tmp_path):
        out = tmp_path / "sweep"
        res = run_cli("sweep", "--N", "3", "--tau-final", "0.4",
                      "--axis", "threshold", "--values", "2^-4,2^-8",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema: itpp-sweep v1"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2
        assert all(",completed," in l for l in data)
        assert (out / "points" / "threshold=2^-4" / "trajectory.csv").exists()

    def test_point_failure_recorded_sweep_continues(self, tmp_path):
        out = tmp_path / "sweep"
        res = run_cli("sweep", "--N", "3", "--tau-final", "0.4",
                      "--axis", "N", "--values", "1,3",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        data = [l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert data[0].startswith("1,failed")
        assert data[1].startswith("3,completed")

    def test_fractional_n_point_fails(self, tmp_path):
        out = tmp_path / "sweep"
        res = run_cli("sweep", "--N", "3", "--tau-final", "0.4",
                      "--axis", "N", "--values", "3.5,3",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        data = [l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert data[0].startswith("3.5,failed")
        assert "whole number" in data[0]
        assert data[1].startswith("3,completed")

    @pytest.mark.parametrize("axis", ["N", "K"])
    def test_negative_count_point_fails(self, tmp_path, axis):
        out = tmp_path / "sweep"
        res = run_cli("sweep", "--N", "3", "--tau-final", "0.4",
                      "--axis", axis, "--values=-3,3",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        data = [l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert data[0].startswith("-3,failed")
        assert "non-negative whole number" in data[0]
        assert data[1].startswith("3,completed")

    def test_failed_value_with_quote_reads_back(self, tmp_path):
        out = tmp_path / "sweep"
        raw = '1e-3"x'
        res = run_cli("sweep", "--N", "4", "--tau-final", "0.08",
                      "--axis", "threshold", "--values", f"0.01,{raw}",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        with open(out / "sweep.csv", newline="") as f:
            rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
        assert rows[1][1] == "completed"
        with pytest.raises(ConfigError) as err:
            cli._number("axis threshold", raw)
        assert rows[2] == [raw, "failed", "", "", "", "", "",
                           f"ConfigError: {err.value}"]

    def test_empty_axis_usage_error(self, tmp_path):
        res = run_cli("sweep", "--N", "3", "--axis", "threshold",
                      "--values", "", "--out-dir", str(tmp_path / "s"))
        assert res.returncode == 2

    def test_delta_tau_axis(self, tmp_path):
        out = tmp_path / "dt"
        res = run_cli("sweep", "--N", "2", "--tau-final", "0.2",
                      "--axis", "delta_tau", "--values", "0.1,0.05",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        data = [l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(data) == 2
