"""End-to-end tests of the command line front end via subprocess.

Each invocation runs ``python -m forrlab.cli`` in a clean process so exit
codes, stdout bytes, and environment handling are tested exactly as a user
sees them.
"""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import forrlab.diffusion as diff
import forrlab.forrelation as forr
from forrlab import _kernels, cli


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "forrlab.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


def report_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def run_refusing_draws(monkeypatch, capsys, argv):
    """cli.main in process, with the kernel entry failing if reached; (exit code, stderr)."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("the kernel ran before the refusal")

    monkeypatch.setattr(_kernels, "_run_blocks_np", no_sampling)
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestPhiAndAccept:
    def test_phi_trivial_instance(self):
        proc = run_cli("phi", "--n", "1", "--x", "1", "--y", "1")
        assert proc.returncode == 0
        assert proc.stdout == '{"phi": 1.0}\n'

    def test_phi_matches_library(self):
        proc = run_cli("phi", "--x=1,1,-1,1", "--y=1,1,1,-1")
        assert proc.returncode == 0
        expected = forr.phi([1, 1, -1, 1], [1, 1, 1, -1])
        assert report_of(proc)["phi"] == expected

    def test_phi_length_mismatch_is_usage_error(self):
        proc = run_cli("phi", "--n", "2", "--x", "1", "--y", "1,1")
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "error" in proc.stderr

    def test_phi_non_power_of_two_is_usage_error(self):
        proc = run_cli("phi", "--x=1,1,1", "--y=1,1,1")
        assert proc.returncode == 64

    def test_accept_reports_law_and_shots(self):
        proc = run_cli("accept", "--x=1,-1", "--y=1,1", "--shots", "200", "--seed", "4")
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["accept_probability"] == (1.0 + doc["phi"]) / 2.0
        assert 0.0 <= doc["sampled_acceptance"] <= 1.0

    def test_accept_rejects_non_sign_input(self):
        proc = run_cli("accept", "--x=0.5,1", "--y=1,1")
        assert proc.returncode == 64


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 64
        assert proc.stdout == ""

    def test_unknown_flag(self):
        proc = run_cli("phi", "--x", "1", "--y", "1", "--frobnicate")
        assert proc.returncode == 64

    def test_missing_model_is_usage_error(self):
        proc = run_cli("sample")
        assert proc.returncode == 64
        assert proc.stdout == ""

    def test_dim_requires_gamma(self):
        proc = run_cli("sample", "--dim", "4", "--samples", "10")
        assert proc.returncode == 64

    def test_invalid_n(self):
        proc = run_cli("verify-prop", "--n", "3", "--samples", "10")
        assert proc.returncode == 64
        assert proc.stdout == ""

    def test_unreadable_function_file(self, tmp_path):
        proc = run_cli(
            "verify-main",
            "--function",
            str(tmp_path / "missing.json"),
            "--samples",
            "10",
        )
        assert proc.returncode == 64
        assert proc.stdout == ""

    def test_non_finite_function_file(self, tmp_path):
        # json.load reads a bare NaN; the function must not reach the sampler
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "coeffs": [0, 0, 0, NaN]}\n')
        proc = run_cli("verify-dynkin", "--function", str(path), "--samples", "10")
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "finite" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--n", "16", "--samples", "0", "--ell", "nan"),
            ("sweep", "--n", "16", "--samples", "0", "--c=-inf"),
            ("verify-lemma", "--vars", "2", "--functions", "1", "--anchors", "1", "--tol", "nan"),
            ("verify-main", "--samples", "10", "--t", "nan"),
            ("verify-main", "--samples", "10", "--t", "inf"),
            ("sample", "--dim", "2", "--gamma", "nan", "--samples", "10"),
            ("sample", "--n", "2", "--epsilon", "inf", "--samples", "10"),
        ],
        ids=["ell-nan", "c-neg-inf", "tol-nan", "t-nan", "t-inf", "gamma-nan", "epsilon-inf"],
    )
    def test_non_finite_float_flag(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "finite" in proc.stderr

    def test_bad_seed_env(self):
        proc = run_cli(
            "verify-lemma", "--vars", "2", "--functions", "1", "--anchors", "1",
            env={"FORRLAB_SEED": "not-a-number"},
        )
        assert proc.returncode == 64
        assert "FORRLAB_SEED" in proc.stderr

    def test_unstored_batch_past_the_limit_is_usage_error(self):
        # 1e12 paths would hold 33 TB of tau, exit flags, stream ids and phi
        proc = run_cli("verify-prop", "--n", "2", "--samples", "1000000000000")
        assert proc.returncode == 64
        assert "byte limit" in proc.stderr
        assert proc.stdout == ""


    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "2"),
            ("verify-dynkin",),
            ("verify-main",),
            ("verify-prop", "--n", "2"),
            ("advantage", "--n", "2"),
            ("sweep", "--n", "16"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_sample_is_refused_before_sampling(self, monkeypatch, capsys, argv):
        # in process, so that a draw before the refusal fails the test
        code, err = run_refusing_draws(monkeypatch, capsys, (*argv, "--samples", "1"))
        assert code == 64
        assert "--samples" in err

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "2"),
            ("accept", "--x=1,-1", "--y=1,1"),
            ("accept", "--x=1,-1", "--y=1,1", "--shots", "10"),
            ("verify-lemma", "--vars", "2", "--functions", "1", "--anchors", "1"),
            ("verify-dynkin",),
            ("verify-main",),
            ("verify-prop", "--n", "2"),
            ("advantage", "--n", "2"),
            ("sweep", "--n", "4", "--samples", "10", "--dt-div", "8"),
        ],
        ids=[
            "sample", "accept", "accept-shots", "verify-lemma", "verify-dynkin", "verify-main",
            "verify-prop", "advantage", "sweep",
        ],
    )
    def test_negative_seed_is_refused_before_sampling(self, monkeypatch, capsys, argv, via):
        # numpy refuses negative seeds; sweep used to run, seeding row n with seed + n
        if via == "flag":
            monkeypatch.delenv("FORRLAB_SEED", raising=False)
            argv += ("--seed", "-1")
        else:
            monkeypatch.setenv("FORRLAB_SEED", "-1")
        code, err = run_refusing_draws(monkeypatch, capsys, argv)
        assert code == 64
        assert "--seed" in err and "FORRLAB_SEED" in err

    def test_flag_seed_overrides_a_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("FORRLAB_SEED", "not-a-number")
        assert cli.main(["accept", "--x=1,-1", "--y=1,1", "--shots", "10", "--seed", "3"]) == 0
        assert "sampled_acceptance" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("dt_div", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "2"),
            ("verify-dynkin",),
            ("verify-main",),
            ("verify-prop", "--n", "2"),
            ("advantage", "--n", "2"),
            ("sweep", "--n", "4"),
            ("sweep", "--n", "4", "--samples", "0"),
        ],
        ids=["sample", "verify-dynkin", "verify-main", "verify-prop", "advantage", "sweep", "sweep-unsampled"],
    )
    def test_dt_div_below_one_is_refused_before_sampling(self, monkeypatch, capsys, argv, dt_div):
        code, err = run_refusing_draws(monkeypatch, capsys, (*argv, "--dt-div", dt_div))
        assert code == 64
        assert "--dt-div" in err

    def test_oversized_shots_are_usage_error(self):
        # 2e11 shots would draw 1.8 TB at once
        proc = run_cli("accept", "--x", "1,1", "--y", "1,-1", "--shots", "200000000000")
        assert proc.returncode == 64
        assert "byte limit" in proc.stderr
        assert proc.stdout == ""


# (id, argv, a piece of the one error line); {dir} holds the function files of
# FUNCTION_FILES.  Rows cover each flag's argparse type, the conflicting model
# flags, every rule across flags and each request that once crashed (exit 1)
FUNCTION_FILES = {
    "n-null": '{"n": null, "coeffs": [0, 0, 0, 1]}',
    "n-float": '{"n": 2.9, "coeffs": [0, 0, 0, 1]}',
    "n-bool": '{"n": true, "coeffs": [0, 1]}',
    "coeffs-object": '{"n": 2, "coeffs": {"a": 1}}',
    "three-vars": '{"n": 3, "coeffs": [0, 0, 0, 0, 0, 0, 0, 1]}',
}
REFUSALS = [
    ("samples-floor", ["verify-prop", "--n", "2", "--samples", "1"],
     "argument --samples: must be an integer >= 2, got 1"),
    ("samples-text", ["sample", "--n", "2", "--samples", "many"], "argument --samples: invalid"),
    ("dt-div-floor", ["advantage", "--n", "2", "--dt-div", "0"],
     "argument --dt-div: must be an integer >= 1, got 0"),
    ("sweep-dt-div-floor", ["sweep", "--n", "4", "--dt-div", "-1"],
     "argument --dt-div: must be an integer >= 1"),
    ("vars-floor", ["verify-lemma", "--vars", "1"], "argument --vars: must be an integer >= 2, got 1"),
    ("functions-floor", ["verify-lemma", "--functions", "0"],
     "argument --functions: must be an integer >= 1, got 0"),
    ("anchors-floor", ["verify-lemma", "--anchors", "-3"],
     "argument --anchors: must be an integer >= 1, got -3"),
    ("seed-negative", ["sample", "--n", "2", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
    ("gamma-nan", ["sample", "--dim", "2", "--gamma", "nan"], "argument --gamma: invalid finite value"),
    ("x-text", ["phi", "--x", "1,a", "--y", "1"], "argument --x: invalid numbers value: '1,a'"),
    ("y-text", ["accept", "--x", "1", "--y", "1;1"], "argument --y: invalid numbers value"),
    ("truth-table-text", ["verify-main", "--dim", "2", "--gamma", "0.5", "--truth-table", "1,x,1,1"],
     "argument --truth-table: invalid"),
    ("n-range-text", ["sweep", "--n", "4..x"], "argument --n: invalid n_range value"),
    ("n-range-power", ["sweep", "--n", "12..48", "--samples", "0"], "argument --n: must be a power of two"),
    ("n-range-order", ["sweep", "--n", "16..4", "--samples", "0"], "argument --n: must be a power of two"),
    ("n-range-zero", ["sweep", "--n", "0"], "argument --n: must be a power of two"),
    ("n-and-dim", ["verify-dynkin", "--n", "2", "--dim", "4", "--gamma", "0.1"],
     "argument --dim: not allowed with argument --n"),
    ("gamma-with-n", ["sample", "--n", "2", "--gamma", "0.1"], "--gamma applies only to --dim"),
    ("dim-without-gamma", ["verify-main", "--dim", "4"], "--dim needs --gamma"),
    ("no-model", ["sample"], "one of --n or --dim is required"),
    ("pair-length", ["phi", "--n", "2", "--x", "1", "--y", "1,1"], "--x and --y must have length --n = 2"),
    ("sweep-one-sample", ["sweep", "--n", "4", "--samples", "1"],
     "--samples must be 0 (skips sampling) or >= 2"),
    ("sweep-negative-samples", ["sweep", "--n", "4", "--samples", "-2"],
     "--samples must be 0 (skips sampling) or >= 2"),
    ("horizon-dim1", ["verify-dynkin", "--dim", "1", "--gamma", "0"],
     "the default horizon 1/(8 ln N) needs dimension >= 2"),
    ("default-function-dim1", ["verify-main", "--dim", "1", "--gamma", "0", "--epsilon", "0.1"],
     "the default function x0 x1 needs dimension >= 2"),
    ("table-vars-mismatch", ["verify-main", "--dim", "2", "--gamma", "0.5", "--truth-table=1,1,1,1,1,1,1,-1"],
     "function has 3 variables but the covariance has dimension 2"),
    ("file-vars-mismatch", ["verify-dynkin", "--dim", "2", "--gamma", "0.5", "--function", "{dir}/three-vars.json"],
     "function has 3 variables"),
    ("lemma-vars-40", ["verify-lemma", "--vars", "40", "--functions", "1", "--anchors", "1"],
     "capped at 16 variables"),
    ("dynkin-dim-40", ["verify-dynkin", "--dim", "40", "--gamma", "0", "--samples", "10"],
     "capped at 16 variables"),
    ("main-dim-40", ["verify-main", "--dim", "40", "--gamma", "0", "--samples", "10"],
     "capped at 16 variables"),
    ("dynkin-n-64", ["verify-dynkin", "--n", "64"], "capped at 16 variables; the process has 128"),
    ("file-n-null", ["verify-dynkin", "--function", "{dir}/n-null.json", "--samples", "10"],
     'bad function file: "n" must be an integer, got None'),
    ("file-n-float", ["verify-main", "--function", "{dir}/n-float.json", "--samples", "10"],
     'bad function file: "n" must be an integer, got 2.9'),
    ("file-n-bool", ["verify-main", "--function", "{dir}/n-bool.json"],
     'bad function file: "n" must be an integer, got True'),
    ("file-coeffs-object", ["verify-dynkin", "--function", "{dir}/coeffs-object.json"],
     'bad function file: "coeffs" must be a list of numbers'),
]


@pytest.mark.parametrize("argv, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_table(monkeypatch, capsys, tmp_path, argv, message):
    # in process: a draw before the refusal, or any exception but the
    # parser's exit, fails the test
    for name, text in FUNCTION_FILES.items():
        (tmp_path / f"{name}.json").write_text(text)
    code, err = run_refusing_draws(monkeypatch, capsys, [a.format(dir=tmp_path) for a in argv])
    assert code == 64
    assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(f"forrlab {argv[0]}: error: ") and message in err, err


# requests whose inputs once sized an allocation before any cap was checked
# (exit 1 with a MemoryError); "{dir}" holds the function file
UNBOUNDED_ALLOCATIONS = [
    ("dense-dim-100000", ["sample", "--dim", "100000", "--gamma", "0", "--samples", "10"],
     "dense covariance capped at dim 4096"),
    ("file-n-1e11", ["verify-main", "--dim", "2", "--gamma", "0.5", "--function", "{dir}/huge-n.json"],
     "coefficient table must have length 2^100000000000, got (1,)"),
]


@pytest.mark.parametrize(
    "argv, message", [row[1:] for row in UNBOUNDED_ALLOCATIONS], ids=[row[0] for row in UNBOUNDED_ALLOCATIONS]
)
def test_oversized_inputs_are_refused_under_an_address_space_cap(tmp_path, argv, message):
    # the child alone runs under a 3 GiB address space, so an allocation sized
    # by the input fails at once instead of paging the host
    (tmp_path / "huge-n.json").write_text('{"n": 100000000000, "coeffs": [1]}')

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "forrlab.cli", *(a.format(dir=tmp_path) for a in argv)],
        capture_output=True, text=True, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 64, proc.stderr
    err = proc.stderr
    assert err.count("error:") == 1 and err.count("\n") == 1, err
    assert err.startswith(f"forrlab {argv[0]}: error: ") and message in err, err
    assert proc.stdout == ""


REPORT_SUBCOMMANDS = ["sample", "verify-lemma", "verify-dynkin", "verify-main", "verify-prop", "advantage", "sweep"]


class TestParser:
    @pytest.mark.parametrize("name", REPORT_SUBCOMMANDS)
    def test_report_subcommands_take_seed_and_output_flags(self, monkeypatch, name):
        monkeypatch.delenv("FORRLAB_SEED", raising=False)
        assert cli.build_parser().parse_args([name]).seed == 0
        args = cli.build_parser().parse_args([name, "--seed", "3", "--out", "r.json", "--no-timestamp"])
        assert (args.seed, args.out, args.no_timestamp) == (3, "r.json", True)

    @pytest.mark.parametrize("name, taken", [("accept", {"--seed"}), ("phi", set())])
    def test_plain_subcommands_take_only_their_flags(self, name, taken):
        for flag in ("--seed=3", "--out=r.json", "--no-timestamp"):
            argv = [name, "--x=1", "--y=1", flag]
            if flag.split("=")[0] in taken:
                cli.build_parser().parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 64


class TestVerifySubcommands:
    def test_verify_lemma_passes(self):
        proc = run_cli(
            "verify-lemma", "--vars", "3", "--functions", "4", "--anchors", "3",
            "--seed", "2", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["verdict"] == "pass"
        assert doc["max_residual"] < 1e-9
        assert doc["samples"] == 12

    def test_verify_dynkin_bare_defaults(self):
        proc = run_cli(
            "verify-dynkin", "--samples", "1500", "--dt-div", "64",
            "--seed", "6", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["dim"] == 2
        assert doc["epsilon"] == 0.05
        assert doc["verdict"] == "pass"

    def test_verify_dynkin_triples_dump(self, tmp_path):
        out = tmp_path / "triples.csv"
        proc = run_cli(
            "verify-dynkin", "--samples", "200", "--dt-div", "32",
            "--seed", "6", "--dump-triples", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,f_x_tau,accumulator"
        assert len(lines) == 201

    def test_verify_main_bare_defaults(self):
        proc = run_cli(
            "verify-main", "--samples", "1500", "--dt-div", "64",
            "--seed", "8", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["dim"] == 4
        assert doc["gamma"] == 0.2
        assert doc["verdict"] == "pass"

    def test_verify_main_inline_truth_table(self):
        proc = run_cli(
            "verify-main", "--dim", "2", "--gamma", "0.5",
            "--truth-table=1,-1,-1,1", "--samples", "1500",
            "--dt-div", "64", "--seed", "8", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["t_level2"] == 1.0

    def test_verify_main_function_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [0.0, 0.0, 0.0, 1.0]}))
        proc = run_cli(
            "verify-main", "--dim", "2", "--gamma", "0.5", "--function", str(path),
            "--samples", "1500", "--dt-div", "64", "--seed", "8", "--no-timestamp",
        )
        assert proc.returncode == 0
        assert report_of(proc)["t_level2"] == 1.0

    def test_verify_prop_small_instance(self):
        proc = run_cli(
            "verify-prop", "--n", "4", "--samples", "4000", "--dt-div", "128",
            "--seed", "3", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["verdict"] == "pass"
        assert doc["mean_phi"] >= doc["bound_eps_over_4"]

    def test_advantage_with_rounding(self):
        proc = run_cli(
            "advantage", "--n", "4", "--samples", "4000", "--dt-div", "128",
            "--rounded", "--seed", "3", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["verdict"] == "pass"
        assert "mean_phi_rounded" in doc


class TestSampleSubcommand:
    def test_csv_dump_round_trips(self, tmp_path):
        out = tmp_path / "paths.csv"
        proc = run_cli(
            "sample", "--n", "2", "--samples", "60", "--dt-div", "32",
            "--seed", "12", "--dump-paths", str(out), "--bits", "--no-timestamp",
        )
        assert proc.returncode == 0
        header, batch, bits = diff.load_paths_csv(str(out))
        assert header["dim"] == 4
        assert header["seed"] == 12
        # the header restates the report's settings, plus the sample count
        doc = report_of(proc)
        assert header == {**{key: doc[key] for key in ("dim", "epsilon", "dt", "bridge", "seed")}, "samples": 60}
        assert len(batch) == 60
        assert bits.shape == (60, 4)
        assert np.isin(bits, [-1, 1]).all()

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "sample", "--dim", "2", "--gamma", "0.3", "--samples", "40",
            "--dt-div", "32", "--seed", "1", "--out", str(out), "--no-timestamp",
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        doc = json.loads(out.read_text())
        assert doc["name"] == "sample"
        assert doc["dim"] == 2


class TestReproducibility:
    def test_rerun_is_byte_identical(self):
        argv = (
            "verify-prop", "--n", "2", "--samples", "2000", "--dt-div", "64",
            "--seed", "42", "--no-timestamp",
        )
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout

    def test_timestamp_breaks_byte_identity_but_not_values(self):
        argv = ("verify-lemma", "--vars", "2", "--functions", "2", "--anchors", "2", "--seed", "5")
        a = report_of(run_cli(*argv))
        b = report_of(run_cli(*argv))
        assert "timestamp" in a
        a.pop("timestamp"), b.pop("timestamp")
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_env_seed_matches_flag_seed(self):
        argv = ("sample", "--n", "2", "--samples", "30", "--dt-div", "32", "--no-timestamp")
        via_env = run_cli(*argv, env={"FORRLAB_SEED": "123"})
        via_flag = run_cli(*argv, "--seed", "123")
        assert via_env.returncode == 0
        assert via_env.stdout == via_flag.stdout


class TestSweep:
    def test_arithmetic_only_profile(self):
        proc = run_cli("sweep", "--n", "4..16", "--samples", "0", "--no-timestamp")
        assert proc.returncode == 0
        doc = report_of(proc)
        rows = doc["rows"]
        assert [r["n"] for r in rows] == [4, 8, 16]
        for r in rows:
            assert r["bound"] == pytest.approx(0.25 / np.sqrt(r["n"]), rel=1e-12)
            assert "mean_phi" not in r

    def test_sampled_sweep_reports_phi(self):
        proc = run_cli(
            "sweep", "--n", "4..8", "--samples", "3000", "--dt-div", "128",
            "--seed", "2", "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = report_of(proc)
        assert doc["verdict"] == "pass"
        for r in doc["rows"]:
            assert r["mean_phi"] >= r["bound_eps_over_4"]
            assert r["se_phi"] > 0.0

    def test_row_past_the_capacity_limit_is_refused_before_any_row_samples(self, monkeypatch, capsys):
        # rows sample largest n first: at this limit the n = 4 and n = 8
        # groups of 2000 paths fit (working sets of 1.6 and 2.2 MB) and
        # n = 16 does not (3.4 MB), so sweep exits before drawing for n = 4
        calls = []
        loop = _kernels._paths_block_np

        def counted(*args, **kwargs):
            calls.append(args)
            return loop(*args, **kwargs)

        monkeypatch.setattr(_kernels, "_paths_block_np", counted)
        monkeypatch.setattr(_kernels, "STORED_PATHS_BYTE_LIMIT", 3_000_000)
        assert cli.main(["sweep", "--n", "4", "--samples", "2000"]) == 0
        assert calls
        calls.clear()
        capsys.readouterr()
        assert cli.main(["sweep", "--n", "4..16", "--samples", "2000"]) == 64
        assert calls == []
        assert "byte limit" in capsys.readouterr().err

    def test_bad_range_is_usage_error(self):
        proc = run_cli("sweep", "--n", "12..48", "--samples", "0")
        assert proc.returncode == 64
        proc = run_cli("sweep", "--n", "16..4", "--samples", "0")
        assert proc.returncode == 64


# the 17 lines benchmarks/seeded_outputs.py prints: a change that keeps every
# draw and every float operation keeps them, and one that moves a seeded
# output edits them here
SEEDED_OUTPUTS = """\
sample-n16.json c1345775ff0934dbebbf3f93e4dba7ee1cce79058dc2c7418b11a7fe587a2098
sample-n64-ahead.json d889c616e9bace7140939788725b82260113fd3bfb44ddac78ad555fc05807d8
sample-dense-bridge.json 65e75e932ec32236a9fd3b3e74e6a47a80db865e482c85ca500ad889e8418c8e
verify-prop.json c9d01b0d22a931416f8c13faa80975e160f4e67e23883f871dd6662c255adb53
verify-dynkin.json 21305669aa1bb74a20b2ed5aae34b97eb499b4d338f6d1bd8233142ab5baeb85
verify-dynkin-n1.json a0b286bcf896a849ae1f6f827ebb9f86cb011fa8b92ee636da4ccab369462649
verify-main.json 0718432577446c20aec178f4eb37e66413a10f599ec7c3f15ed2061aa7db3748
verify-main-n2.json 315879b23d1ec1a41799af05cf14bc4d5a8b87cc31300fe965813b4f9003f478
advantage.json 24062dfd259b3b48dfdb98c6a0ff6b7e34252efec888dc43cc70b251baec10ec
sweep.json 28aa6c7629cb8a08c67f47ffb0d053ac90a0c3bb245eccabb6f6361e67461ae9
verify-lemma.json bd8d276d8c45f9029c631d809e2b8b6a73a00137a68f8ae50d085679ac4e74f6
dynkin-triples.csv 88da53b8bf78ca07e84d229934aa7d7069402bd74384992e24553a1f30ab250e
sample-dense.csv 51ec56abc8ed138b428df3ae43c2e7852fc45d6c549151bd984690c89a464e9f
sample-n16.csv 00954f26082cd1b0832b9442f9fb4c79b65dc09f144e9608e1c26633c00b916d
exit-report-dim1 1308d0952378e835854aef97a4293991cbf272b98dd8ac7b00c0f86ad7cf31b6
exit-report-dim4 42d4b461431752b8da9c5866467b86e9c49689b212363b16cfe812b6808617bb
exit-report-dim1-blocks5 f9c4c97835ea38e9d812804d5da0372c0200eac40c705faa1f4f3dbabfa00e49
"""


def test_seeded_outputs_are_pinned():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "seeded_outputs.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SEEDED_OUTPUTS
