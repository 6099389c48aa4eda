"""Command-line interface: payloads, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from entmon.cli import main
from entmon.serialize import save_state
from entmon.states import bell_state, product_pure


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

    def test_vector_off_norm_beyond_trace_tolerance_is_parse_error(self, tmp_path, capsys):
        # |psi| = 1 + 8e-11 puts Tr |psi><psi| 1.6e-10 from 1, beyond the
        # density-matrix trace tolerance: refused at load, not a traceback.
        amps = bell_state().amplitudes * (1.0 + 0.8e-10)
        path = tmp_path / "bell-off.json"
        path.write_text(json.dumps({"dims": [2, 2],
                                    "vector": [[z.real, z.imag] for z in amps.tolist()]}))
        assert main(["measure", str(path), "eof"]) == 2
        assert "norm" in capsys.readouterr().err

    def test_wrong_dims_is_mismatch(self, tmp_path, capsys):
        from entmon.sampling import random_mixed
        from entmon.states import Dims

        path = tmp_path / "rho23.json"
        save_state(path, random_mixed(Dims(2, 3), None, np.random.default_rng(0)))
        assert main(["measure", str(path), "eof"]) == 3


class TestVerifyCommand:
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
        cfg.write_text(json.dumps({"mystery_knob": 3}))
        assert main(["verify", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"base": "bits"}))
        assert main(["verify", "--config", str(cfg)]) == 2

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
