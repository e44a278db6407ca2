"""End-to-end tests of the command line front end via subprocess.

Each invocation runs ``python -m forrlab.cli`` in a clean process so exit
codes, stdout bytes, and environment handling are tested exactly as a user
sees them.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import forrlab.diffusion as diff
import forrlab.forrelation as forr


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

    def test_unstored_batch_past_the_limit_is_usage_error(self):
        # 1e12 paths would hold 33 TB of tau, exit flags, stream ids and phi
        proc = run_cli("verify-prop", "--n", "2", "--samples", "1000000000000")
        assert proc.returncode == 64
        assert "byte limit" in proc.stderr
        assert proc.stdout == ""


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
