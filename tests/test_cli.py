"""Command-line interface: payloads, exit codes, determinism."""

import json
import math
import re

import numpy as np
import pytest

from entmon.cli import main
from entmon.serialize import save_state
from entmon.states import DensityMatrix, Dims, PureState, bell_state, product_pure


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(path, bell_state())
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    save_state(path, product_pure(np.array([1.0, 0.0]), np.array([0.6, 0.8])))
    return str(path)


class TestMeasureCommand:
    def test_bell_negativity(self, bell_file, capsys):
        assert main(["measure", bell_file, "negativity"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.5, abs=1e-10)

    def test_bell_eof_in_bits(self, bell_file, capsys):
        assert main(["measure", bell_file, "eof", "--base", "bits"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-10)

    def test_bell_eof_in_nats(self, bell_file, capsys):
        assert main(["measure", bell_file, "eof"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(2), abs=1e-10)

    def test_log_negativity_not_rescaled_by_base(self, bell_file, capsys):
        assert main(["measure", bell_file, "log-negativity", "--base", "bits"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_measures_zero(self, product_file, capsys):
        for measure in ("negativity", "eof", "tangle", "renyi:0.5"):
            assert main(["measure", product_file, measure]) == 0
            assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-10)

    def test_json_payload(self, bell_file, capsys):
        assert main(["measure", bell_file, "negativity", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measure"] == "negativity"
        assert payload["dims"] == [2, 2]
        assert payload["value"] == pytest.approx(0.5, abs=1e-10)

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main(["measure", str(tmp_path / "none.json"), "eof"]) == 2

    def test_bad_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["measure", str(path), "eof"]) == 2

    def test_unknown_measure_is_mismatch(self, bell_file, capsys):
        assert main(["measure", bell_file, "sorcery"]) == 3

    @pytest.mark.parametrize("measure_id", ["tsallis:nan", "tsallis:inf"])
    def test_non_finite_order_is_mismatch(self, bell_file, measure_id, capsys):
        assert main(["measure", bell_file, measure_id]) == 3

    def test_negative_seed_is_parse_error(self, bell_file, capsys):
        assert main(["measure", bell_file, "eof", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --seed must be nonnegative\n"

    def test_vector_off_norm_beyond_trace_tolerance_is_parse_error(self, tmp_path, capsys):
        # |psi| = 1 + 8e-11 puts Tr |psi><psi| 1.6e-10 from 1, beyond the
        # density-matrix trace tolerance: refused at load, not a traceback.
        amps = bell_state().amplitudes * (1.0 + 0.8e-10)
        path = tmp_path / "bell-off.json"
        path.write_text(json.dumps({"dims": [2, 2],
                                    "vector": [[z.real, z.imag] for z in amps.tolist()]}))
        assert main(["measure", str(path), "eof"]) == 2
        assert "norm" in capsys.readouterr().err

    def test_boolean_dims_are_parse_error(self, tmp_path, capsys):
        # ``true`` once loaded as a factor of 1, so the file measured as 1x4.
        path = tmp_path / "bool-dims.json"
        amps = bell_state().amplitudes
        path.write_text(json.dumps({"dims": [True, 4],
                                    "vector": [[z.real, z.imag] for z in amps.tolist()]}))
        assert main(["measure", str(path), "eof", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "positive integers" in captured.err

    def test_wrong_dims_is_mismatch(self, tmp_path, capsys):
        from entmon.sampling import random_mixed
        from entmon.states import Dims

        path = tmp_path / "rho23.json"
        save_state(path, random_mixed(Dims(2, 3), None, np.random.default_rng(0)))
        assert main(["measure", str(path), "eof"]) == 3

    @pytest.mark.parametrize("measure_id", ["negativity-roof", "ree"])
    def test_tripartite_optimizer_measure_is_mismatch(self, tmp_path, measure_id, capsys):
        from entmon.sampling import random_mixed
        from entmon.states import Dims

        path = tmp_path / "tri.json"
        save_state(path, random_mixed(Dims(2, 2, 2), 3, np.random.default_rng(0)))
        assert main(["measure", str(path), measure_id]) == 3
        assert "bipartite" in capsys.readouterr().err


@pytest.mark.parametrize("measure_id", ["negativity", "log-negativity"])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_ppt_state_below_unit_trace_measures_zero(tmp_path, capsys, measure_id, kind):
    # Valid states whose norm or trace sits just below 1.
    if kind == "pure":
        state = PureState((1.0 - 2e-11) * np.eye(4)[0], Dims(2, 2))
    else:
        state = DensityMatrix((1.0 - 5e-11) * np.eye(4) / 4.0, Dims(2, 2))
    path = tmp_path / "state.json"
    save_state(path, state)
    assert main(["measure", str(path), measure_id]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_ree_of_a_one_by_one_state_prints_zero(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dims": [1, 1], "matrix": [[1.0, 0.0]]}))
    assert main(["measure", str(path), "ree"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_g_concurrence_with_a_factor_of_dimension_one_is_a_mismatch(tmp_path, capsys):
    path = tmp_path / "line.json"
    save_state(path, product_pure(np.array([1.0]), np.array([0.6, 0.8, 0.0])))
    assert main(["measure", str(path), "g-concurrence"]) == 3
    assert "not defined" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [5e-10, -5e-10])
def test_negativity_roof_at_the_support_edge_exits_cleanly(tmp_path, capsys, delta):
    # A valid state with an eigenvalue within TOL_PSD of 0 once raised a
    # traceback and exited 1, the code of a failing verify verdict.
    from entmon.sampling import haar_unitary

    u = haar_unitary(4, np.random.default_rng(0))
    path = tmp_path / "edge.json"
    save_state(path, DensityMatrix((u * [0.6, 0.4 - delta, delta, 0.0]) @ u.conj().T, Dims(2, 2)))
    assert main(["measure", str(path), "negativity-roof"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


class TestVerifyCommand:
    def test_zero_trials_exits_cleanly(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        assert main(["verify", "--trials", "0", "--out", str(out)]) == 0
        verdicts = [json.loads(line)["verdict"] for line in out.read_text().splitlines()]
        assert "fail" not in verdicts and "skipped" in verdicts

    def test_all_skipped_group_reads_as_skipped(self, tmp_path, capsys):
        # The scan of 0 triples is skipped, not failed: its CSV row and its
        # table line say so.
        import csv

        out = tmp_path / "rep.jsonl"
        assert main(["verify", "--trials", "0", "--check", "logneg-nonconvexity",
                     "--out", str(out)]) == 0
        row, = csv.DictReader((tmp_path / "rep.csv").open())
        assert (row["check_id"], row["trials"], row["passes"], row["skipped"]) == \
            ("logneg-nonconvexity", "1", "0", "1")
        assert "0/1 pass  1 skipped" in capsys.readouterr().out

    def test_timings_file_leaves_the_reports_unchanged(self, tmp_path, capsys):
        argv = ["verify", "--trials", "3", "--seed", "2", "--check", "strict", "--check",
                "reduced-state", "--check", "concavity"]
        plain, timed = tmp_path / "plain.jsonl", tmp_path / "timed.jsonl"
        timings = tmp_path / "timings.json"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--out", str(timed), "--timings", str(timings)]) == 0
        assert timed.read_bytes() == plain.read_bytes()
        entries = json.loads(timings.read_text())
        counts = {}
        for line in plain.read_text().splitlines():
            check_id = json.loads(line)["check_id"]
            counts[check_id] = counts.get(check_id, 0) + 1
        assert [(e["check_id"], e["reports"]) for e in entries] == list(counts.items())
        assert all(e["seconds"] >= 0.0 for e in entries)

    def test_timings_path_checked_before_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        assert main(["verify", "--check", "concavity", "--trials", "2", "--out", str(out),
                     "--timings", str(tmp_path / "missing" / "t.json")]) == 2
        assert "output error" in capsys.readouterr().err
        assert not out.exists()

    def test_small_sweep_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = main([
            "verify", "--check", "concavity", "--check", "neg-decomposition",
            "--trials", "4", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "rep.csv").exists()
        lines = out.read_text().splitlines()
        assert all(json.loads(line)["verdict"] in ("pass", "skipped") for line in lines)

    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--check", "monotone", "--trials", "3", "--seed", "7"]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "checks": ["concavity"], "trials": 3, "seed": 1,
            "output_path": str(tmp_path / "c.jsonl"),
        }))
        assert main(["verify", "--config", str(cfg)]) == 0
        assert (tmp_path / "c.jsonl").exists()

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"trials": -2}))
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"tolerances": {"closed": -1}}))
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"tolerances": {"closed": 1e-3}}))
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"mystery_knob": 3}))
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"base": "bits"}))
        assert main(["verify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key,value,message", [
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("n_kraus", 2.5, "n_kraus must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be nonnegative"),
        ("n_kraus", 1, "n_kraus must be at least 2"),  # general channels take 2, ..., n_kraus
    ])
    def test_non_integer_or_negative_config_counts_rejected(self, tmp_path, capsys, key, value,
                                                            message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"checks": ["concavity"], key: value,
                                   "output_path": str(tmp_path / "c.jsonl")}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "c.jsonl").exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        assert main(["verify", "--check", "concavity", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed must be nonnegative\n"
        assert not out.exists()

    def test_output_paths_checked_before_the_sweep(self, tmp_path, capsys):
        # A directory, or a path in a missing directory, is a usage error
        # (exit 2), reported before any check runs.
        for out in (tmp_path, tmp_path / "missing" / "rep.jsonl"):
            assert main(["verify", "--check", "concavity", "--trials", "2",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "output error" in err and "check concavity" not in err
        (tmp_path / "rep.csv").mkdir()
        assert main(["verify", "--check", "concavity", "--trials", "2",
                     "--out", str(tmp_path / "rep.jsonl")]) == 2
        assert not (tmp_path / "rep.jsonl").exists()

    def test_base_flag_rejected(self, capsys):
        # Sweep reports are always in nats; only `measure` converts units.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--base", "bits"])
        assert exc.value.code == 2

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = main(["verify", "--check", "concavity", "--trials", "2",
                     "--out", str(out), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert payload["reports"] > 0

    def test_stdout_carries_only_payload(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        main(["verify", "--check", "concavity", "--trials", "2", "--out", str(out), "--json"])
        captured = capsys.readouterr()
        json.loads(captured.out)  # a single JSON document, nothing else
        assert "running checks" in captured.err

    def test_each_check_logs_its_time_to_stderr(self, tmp_path, capsys):
        from entmon.verify import SweepConfig, report_to_json, run_sweep

        out = tmp_path / "rep.jsonl"
        checks = ["monogamy", "concavity", "neg-decomposition"]
        argv = ["verify", "--trials", "2", "--seed", "3", "--out", str(out)]
        for check in checks:
            argv += ["--check", check]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        timed = [re.fullmatch(r"check (\S+): (\d+) reports in (\d+\.\d{3}) s", line)
                 for line in lines]
        timed = [m for m in timed if m]
        assert [m.group(1) for m in timed] == checks
        reports = run_sweep(SweepConfig(checks=tuple(checks), trials=2, seed=3))
        assert sum(int(m.group(2)) for m in timed) == len(reports)
        assert all(float(m.group(3)) >= 0.0 for m in timed)
        # The timings go to stderr only; the report file is unchanged.
        assert out.read_text() == "".join(report_to_json(r) + "\n" for r in reports)
