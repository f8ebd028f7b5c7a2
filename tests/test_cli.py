import csv
import json
import math

import pytest

import mecode as mc
from mecode.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestOptimize:
    def test_fixed_reference(self, capsys, tmp_path):
        out = tmp_path / "cb.json"
        scan = tmp_path / "scan.csv"
        doc = run_json(
            capsys, "optimize", "--kind", "fixed", "--m", "8",
            "--beta0", "1", "--beta1", "5", "-o", str(out), "--scan", str(scan),
        )
        assert doc["beta_code"] == 9.0
        assert doc["n_or_dp"] == 3
        cb = mc.codebook_from_json(out.read_text())
        assert cb.kind == "fixed" and cb.n == 3
        rows = scan.read_text().splitlines()
        assert rows[0] == "n,lmin,cost"
        assert len(rows) == 6  # n in 3..7

    def test_prefix_reference(self, capsys, tmp_path):
        out = tmp_path / "cb.json"
        doc = run_json(
            capsys, "optimize", "--kind", "prefix", "--m", "8",
            "--beta0", "1", "--beta1", "5", "-o", str(out),
        )
        assert doc["beta_code"] == 7.75
        cb = mc.codebook_from_json(out.read_text())
        assert cb.kind == "prefix" and cb.m == 8

    def test_probs_file(self, capsys, tmp_path):
        probs = tmp_path / "probs.json"
        probs.write_text('{"probs": [0.7, 0.1, 0.1, 0.1]}')
        out = tmp_path / "cb.json"
        doc = run_json(
            capsys, "optimize", "--kind", "prefix", "--m", "4", "--probs", str(probs),
            "--beta0", "1", "--beta1", "20", "-o", str(out),
        )
        cb = mc.codebook_from_json(out.read_text())
        costs = [mc.codeword_cost(e, mc.CostModel(1, 20, 1, 1)) for e in cb.entries]
        assert costs[0] == min(costs)  # likeliest symbol gets the cheapest word
        assert doc["m"] == 4

    def test_probs_mismatch_fails(self, capsys, tmp_path):
        probs = tmp_path / "probs.json"
        probs.write_text('{"probs": [0.5, 0.5]}')
        code, _, err = run(
            capsys, "optimize", "--kind", "fixed", "--m", "4", "--probs", str(probs),
            "--beta0", "1", "--beta1", "5", "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "probs" in err

    def test_validation_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "optimize", "--kind", "fixed", "--m", "8",
            "--beta0", "-1", "--beta1", "5", "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "beta0" in err

    def test_human_output(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "optimize", "--kind", "fixed", "--m", "8",
            "--beta0", "1", "--beta1", "5", "-o", str(tmp_path / "cb.json"),
        )
        assert code == 0
        assert "average cost" in out


class TestCodecCommands:
    def test_encode_decode_round_trip(self, capsys, tmp_path):
        cb_path = tmp_path / "cb.json"
        run_json(
            capsys, "optimize", "--kind", "prefix", "--m", "8",
            "--beta0", "1", "--beta1", "5", "-o", str(cb_path),
        )
        symbols = tmp_path / "symbols.txt"
        symbols.write_text("0 1 2 3 4 5 6 7 7 0\n")
        stream = tmp_path / "stream.bin"
        doc = run_json(capsys, "encode", "-c", str(cb_path), "-i", str(symbols), "-o", str(stream))
        assert doc["symbols"] == 10
        decoded = tmp_path / "decoded.txt"
        doc = run_json(capsys, "decode", "-c", str(cb_path), "-i", str(stream), "-o", str(decoded))
        assert doc["symbols"] == 10
        assert decoded.read_text().split() == symbols.read_text().split()

    def test_swapped_costmodel_round_trip(self, capsys, tmp_path):
        cb_path = tmp_path / "cb.json"
        cb = mc.Codebook(kind="fixed", entries=("00", "01", "10", "11"))
        cb_path.write_text(mc.codebook_to_json(cb))
        cm_path = tmp_path / "cm.json"
        cm_path.write_text('{"beta0": 5, "beta1": 1, "t0": 1, "t1": 1}')
        symbols = tmp_path / "s.txt"
        symbols.write_text("0 3 1 2")
        stream = tmp_path / "s.bin"
        run_json(capsys, "encode", "-c", str(cb_path), "-i", str(symbols), "-o", str(stream),
                 "--costmodel", str(cm_path))
        decoded = tmp_path / "d.txt"
        run_json(capsys, "decode", "-c", str(cb_path), "-i", str(stream), "-o", str(decoded),
                 "--costmodel", str(cm_path))
        assert decoded.read_text().split() == ["0", "3", "1", "2"]

    def test_decode_error_reports_offset(self, capsys, tmp_path):
        cb_path = tmp_path / "cb.json"
        cb_path.write_text(mc.codebook_to_json(mc.Codebook(kind="fixed", entries=("000", "001"))))
        stream = tmp_path / "bad.bin"
        stream.write_bytes(mc.BitStream("0000").to_bytes())
        code, _, err = run(capsys, "decode", "-c", str(cb_path), "-i", str(stream),
                           "-o", str(tmp_path / "out.txt"))
        assert code == 1
        assert "bit offset 3" in err


class TestSweepCommand:
    def test_gamma_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        doc = run_json(
            capsys, "sweep", "--var", "gamma", "--grid", "1:100:log5",
            "--m", "8", "--kinds", "fixed,prefix", "-o", str(out),
        )
        assert doc["rows"] == 10
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 10
        assert set(r["kind"] for r in rows) == {"fixed", "prefix"}

    def test_comma_grid_with_inf(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        run_json(capsys, "sweep", "--var", "gamma", "--grid", "1,5,inf",
                 "--m", "4", "--kinds", "fixed", "-o", str(out))
        rows = list(csv.DictReader(out.open()))
        assert [r["gamma"] for r in rows] == ["1.0", "5.0", "inf"]
        assert float(rows[-1]["epsilon"]) == pytest.approx(mc.epsilon_max_fixed(4))

    @pytest.mark.parametrize("grid", ["1:100:cubic5", "1:100:log", "1:100", "a,b", "1:x:log5"])
    def test_bad_grid(self, capsys, tmp_path, grid):
        code, _, err = run(capsys, "sweep", "--var", "gamma", "--grid", grid,
                           "-o", str(tmp_path / "x.csv"))
        assert code == 1
        assert "grid" in err

    def test_bad_m_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--var", "gamma", "--grid", "1,5",
                           "--m", "eight", "-o", str(tmp_path / "x.csv"))
        assert code == 1
        assert "integers" in err


class TestRfidCommand:
    BASE = [
        "rfid-gamma", "--pt", "4", "--gt", "1", "--gr", "1.64", "--freq", "915e6",
        "--r", "15", "--lp", "0.5", "--rant", "50", "--nstages", "3", "--vt", "0.02",
        "--ptag", "1e-5", "--t0", "12.5e-6", "--t1", "12.5e-6",
    ]

    def test_summary_fields(self, capsys):
        doc = run_json(capsys, *self.BASE)
        assert doc["regime"] == "deficit"
        assert doc["gamma"] == pytest.approx(3.0883, rel=1e-3)
        assert 0 < doc["p_in_dc_w"] < doc["p_in_w"]

    def test_emit_costmodel_feeds_optimizer(self, capsys, tmp_path):
        cm_path = tmp_path / "cm.json"
        run_json(capsys, *self.BASE, "--emit-costmodel", str(cm_path))
        cm = mc.cost_model_from_json(cm_path.read_text())
        doc = run_json(
            capsys, "optimize", "--kind", "prefix", "--m", "8",
            "--beta0", str(cm.beta0), "--beta1", str(cm.beta1), "-o", str(tmp_path / "cb.json"),
        )
        assert doc["epsilon"] > 0

    def test_requires_exactly_one_frequency_spec(self, capsys):
        code, _, err = run(capsys, *self.BASE, "--wavelength", "0.33")
        assert code == 1
        assert "freq" in err

    def test_surplus_gamma_serializes_as_inf(self, capsys):
        argv = list(self.BASE)
        argv[argv.index("--r") + 1] = "0.5"
        doc = run_json(capsys, *argv)
        assert doc["regime"] == "surplus"
        assert doc["gamma"] == "inf"


class TestReproduce:
    def test_table4_contains_reference_costs(self, capsys, tmp_path):
        doc = run_json(capsys, "reproduce", "--target", "table4", "--out-dir", str(tmp_path))
        assert doc["values"]["table4"]["fixed"]["average_cost"] == 9.0
        assert doc["values"]["table4"]["prefix"]["average_cost"] == 7.75
        for name in ("table4_fixed_codebook.json", "table4_prefix_codebook.json"):
            assert (tmp_path / name).exists()

    def test_table1_one_hot_codebooks(self, capsys, tmp_path):
        doc = run_json(capsys, "reproduce", "--target", "table1", "--out-dir", str(tmp_path))
        k2 = doc["values"]["table1"]["k2"]
        assert k2["n_opt"] == 3
        assert k2["entries"] == ["000", "001", "010", "100"]
        k3 = doc["values"]["table1"]["k3"]
        assert k3["n_opt"] == 7
        assert all(len(e) == 7 and e.count("1") <= 1 for e in k3["entries"])

    def test_table2_unary_codebooks(self, capsys, tmp_path):
        doc = run_json(capsys, "reproduce", "--target", "table2", "--out-dir", str(tmp_path))
        for k in (2, 3):
            block = doc["values"]["table2"][f"k{k}"]
            expected_length = 0.5 * (2**k + 1 - 2 ** (-(k - 1)))
            assert block["average_length"] == pytest.approx(expected_length)

    def test_fig5_prefix_gap(self, capsys, tmp_path):
        run_json(capsys, "reproduce", "--target", "fig5", "--out-dir", str(tmp_path))
        rows = list(csv.DictReader((tmp_path / "fig5.csv").open()))
        eps: dict = {}
        for row in rows:
            eps.setdefault(row["gamma"], {})[row["kind"]] = float(row["epsilon"])
        gaps = [v["prefix"] - v["fixed"] for v in eps.values() if len(v) == 2]
        assert max(gaps) >= 0.10

    def test_fig2_shape(self, capsys, tmp_path):
        run_json(capsys, "reproduce", "--target", "fig2", "--out-dir", str(tmp_path))
        rows = list(csv.DictReader((tmp_path / "fig2.csv").open()))
        # feasible lengths only: the n grid starts at log2(128) = 7
        assert min(int(r["n_or_dp"]) for r in rows) == 7
        for gamma in ("1.0", "5.0", "100.0"):
            sub = [r for r in rows if r["gamma"] == gamma]
            assert len(sub) == 121
            best_n = min(sub, key=lambda r: float(r["beta_code"]))["n_or_dp"]
            _, scan = mc.optimize_fixed(128, mc.model_from_gamma(float(gamma)))
            assert int(best_n) == scan.n_opt
        # long blocks at small gamma cost more than the uncoded baseline
        assert any(float(r["epsilon"]) < 0 for r in rows if r["gamma"] == "1.0")

    def test_fig3_monotone_optimum(self, capsys, tmp_path):
        run_json(capsys, "reproduce", "--target", "fig3", "--out-dir", str(tmp_path))
        rows = list(csv.DictReader((tmp_path / "fig3.csv").open()))
        for m in ("8", "16", "32", "128"):
            sub = [r for r in rows if r["m"] == m]
            assert len(sub) == 25
            lengths = [int(r["n_or_dp"]) for r in sub]
            assert lengths == sorted(lengths)
            assert lengths[0] == int(math.log2(int(m)))

    def test_outputs_are_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_json(capsys, "reproduce", "--target", "table4", "--out-dir", str(a))
        run_json(capsys, "reproduce", "--target", "fig5", "--out-dir", str(a))
        run_json(capsys, "reproduce", "--target", "table4", "--out-dir", str(b))
        run_json(capsys, "reproduce", "--target", "fig5", "--out-dir", str(b))
        for name in ("table4_fixed_codebook.json", "table4_prefix_codebook.json", "fig5.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCrossProcessDeterminism:
    def test_reproduce_is_identical_across_hash_seeds(self, tmp_path):
        import os
        import subprocess
        import sys

        digests = []
        for seed, sub in (("1", "a"), ("273", "b")):
            out = tmp_path / sub
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "mecode.cli", "reproduce", "--target", "all",
                 "--out-dir", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            blob = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
            digests.append(blob)
        assert digests[0] == digests[1]


class TestSelftest:
    def test_passes_by_default(self, capsys):
        doc = run_json(capsys, "selftest")
        assert doc["ok"] is True
        assert all(v == "pass" for v in doc["properties"].values())

    def test_fault_injection_is_detected(self, capsys):
        code, out, _ = run(capsys, "selftest", "--inject-fault", "prefix-oracle")
        assert code == 1
        assert "FAIL prefix-oracle" in out
        assert out.count("FAIL") == 1

    def test_unknown_fault_name_rejected(self, capsys):
        code, _, err = run(capsys, "selftest", "--inject-fault", "nope")
        assert code == 1
        assert "unknown property" in err

    def test_seed_does_not_change_verdicts(self, capsys):
        for seed in ("0", "1", "12345"):
            doc = run_json(capsys, "selftest", "--seed", seed)
            assert doc["ok"] is True


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("mecode")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = tmp_path / "cb.json"
        proc = subprocess.run(
            [exe, "optimize", "--kind", "fixed", "--m", "4", "--beta0", "1",
             "--beta1", "5", "-o", str(out), "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["m"] == 4
        assert out.exists()


class TestErrorPaths:
    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "encode", "-c", str(tmp_path / "absent.json"),
                           "-i", str(tmp_path / "s.txt"), "-o", str(tmp_path / "o.bin"))
        assert code == 1
        assert "absent.json" in err

    def test_malformed_env_var(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("MECODE_DP", "seven")
        code, _, err = run(capsys, "selftest")
        assert code == 1
        assert "MECODE_DP" in err


class TestEnvPrecedence:
    def test_env_supplies_default_and_flag_wins(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MECODE_DP", "3")
        out = tmp_path / "cb.json"
        run_json(capsys, "optimize", "--kind", "prefix", "--m", "8",
                 "--beta0", "0", "--beta1", "1", "-o", str(out))
        cb = mc.codebook_from_json(out.read_text())
        assert cb.max_length() == 3  # env default applied
        run_json(capsys, "optimize", "--kind", "prefix", "--m", "8",
                 "--beta0", "0", "--beta1", "1", "--dp", "7", "-o", str(out))
        cb = mc.codebook_from_json(out.read_text())
        assert cb.max_length() == 7  # flag overrides env


class TestRejectedInputs:
    @pytest.mark.parametrize("text, message", [
        ("0 1 x 2", "symbols[2]: must be an integer, got 'x'"),
        ("2.5", "symbols[0]: must be an integer, got '2.5'"),
    ])
    def test_encode_non_integer_token(self, capsys, tmp_path, text, message):
        cb_path = tmp_path / "cb.json"
        cb_path.write_text(mc.codebook_to_json(mc.Codebook(kind="fixed", entries=("00", "01", "10"))))
        symbols = tmp_path / "s.txt"
        symbols.write_text(text)
        code, _, err = run(capsys, "encode", "-c", str(cb_path), "-i", str(symbols),
                           "-o", str(tmp_path / "s.bin"))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize("kind, extra, flag", [
        ("fixed", ["--eta-max", "0.5"], "eta_max"),
        ("prefix", ["--scan", "scan.csv"], "--scan"),
    ])
    def test_optimize_flag_of_the_other_kind(self, capsys, tmp_path, monkeypatch, kind, extra, flag):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "optimize", "--kind", kind, "--m", "8", "--beta0", "1",
                           "--beta1", "5", "-o", "cb.json", *extra)
        assert code == 1
        assert err.startswith(f"error: {flag}: ")
        assert list(tmp_path.iterdir()) == []


class TestReproduceManifest:
    # SHA-256 of every file of `reproduce --target all`, as pinned by the
    # `reproduce` manifest of bench/reference.json.
    MANIFEST = {
        "fig2.csv": "a0126a23816d2a78f0e38578e13a4641cf7c7e22c1ae3beba95c3582deb6b06f",
        "fig3.csv": "b6f4aaf18d14f73b95b4eb05805d59e1fbccc063acc0e056823a5331348bb088",
        "fig4.csv": "b6f4aaf18d14f73b95b4eb05805d59e1fbccc063acc0e056823a5331348bb088",
        "fig5.csv": "51f72b5fed679e466afe1f6ca0604cf9a71dde285ce58ca19a40051d29261857",
        "table1_k2_codebook.json": "498fd9b70543771c3ba24257c489898eeb4214c666e0d863602eb88e0101a68d",
        "table1_k3_codebook.json": "fc91826eeeffeb7b2ffc707be99c3b2a7301e618866137a29cb2664ab815f9da",
        "table2_k2_codebook.json": "abd99b114d865cc5ccf4e30697e4731c2cfc77952c702a3b0297e16fc6806657",
        "table2_k3_codebook.json": "662b944e1375d6a0f968ccb17f9b656c03d4dd72ed516397d9b8a5607fe53063",
        "table4_fixed_codebook.json": "3b9560e2714877ec5bdb0418b3cb4e978f9b11f1d1db811e5545bfec888198a4",
        "table4_prefix_codebook.json": "7d1da640a7ec39d9a435fac30a8fee6f4fb4ac90a053d76ac22d6b35399daed2",
    }

    def test_all_targets_match_the_manifest(self, capsys, tmp_path):
        import hashlib

        code, _, err = run(capsys, "reproduce", "--target", "all", "--out-dir", str(tmp_path))
        assert code == 0, err
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == self.MANIFEST
