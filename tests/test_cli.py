import csv
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from procmat.cli import main
from procmat.instruments import gyni_strategy
from procmat.process import FeixParams, feix_process
from procmat.stats import InputDist, cond_probs, joint_dist, objective

SQRT2 = np.sqrt(2)
SEEDED = json.loads((Path(__file__).parent / "seeded_results.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestValidate:
    def test_ocb_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "ocb")
        assert code == 0
        assert "valid" in out

    def test_feix_large_eps_fails_psd(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "feix", "--q", "0.5", "--eps", "10")
        assert code == 1
        assert "FAIL" in out and "positive semidefinite" in out

    def test_maximally_mixed_file(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"IIII": 0.25}))
        code, out, _ = run_cli(capsys, "validate", "--file", str(path))
        assert code == 0

    def test_bad_file_key_reported_with_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"WXYZ": 0.25}))
        code, _, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "WXYZ" in err

    @pytest.mark.parametrize(
        "text, key",
        [('{"IIII": NaN}', "IIII"), ('{"IIII": 0.25, "XIII": Infinity}', "XIII")],
    )
    def test_non_finite_coefficient_named_with_exit_2(
        self, capsys, recwarn, tmp_path, text, key
    ):
        path = tmp_path / "coeffs.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "coeffs.json" in err and key in err and "finite" in err
        assert out == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"IIII": 0.25, "ZZZI": 0.1, "zzzi": 0.1}', "'ZZZI' and 'zzzi'"),
            ('{"IIII": 0.25, "XIII": 0.1, "XIII": 0.1}', "'XIII'"),
        ],
    )
    def test_repeated_pauli_key_exit_2(self, capsys, tmp_path, text, named):
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "twice.json" in err and named in err and out == ""

    def test_repeated_parameter_key_exit_2(self, capsys, tmp_path):
        # json.load alone keeps the last value: q would read 0.9
        path = tmp_path / "params.json"
        path.write_text('{"q": 0.5, "c_0zz": 0.01, "q": 0.9}')
        code, out, err = run_cli(capsys, "validate", "sep", "--params", str(path))
        assert code == 2
        assert "params.json" in err and "repeated key(s) 'q'" in err and out == ""

    def test_unparseable_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "broken.json" in err

    def test_infeasible_sep_params_exit_1(self, capsys, tmp_path):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps({"q": 0.5, "c_0zz": 0.4}))
        code, _, err = run_cli(capsys, "validate", "sep", "--params", str(path))
        assert code == 1
        assert "positive semidefinite" in err and "A<B" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "ocb", "--format", "json")
        doc = json.loads(out)
        assert doc["valid"] is True
        assert len(doc["checks"]) == 5
        assert doc["manifest"]["command"] == "validate"

    def test_duration_survives_backward_clock_step(self, capsys, monkeypatch):
        import time

        wall = iter(range(10**6, 0, -1000))
        monkeypatch.setattr(time, "time", lambda: float(next(wall)))
        code, out, _ = run_cli(capsys, "validate", "ocb", "--format", "json")
        assert code == 0
        assert json.loads(out)["manifest"]["duration_s"] >= 0

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "nonsense"])
        assert err.value.code == 2


class TestEntropy:
    def test_ocb_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "ocb")
        assert code == 0
        assert "H_AB = 1.84565 bits" in out

    def test_ocb_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "ocb", "--format", "json")
        doc = json.loads(out)
        assert doc["joint"]["0,0"] == pytest.approx((1 + 1 / SQRT2) / 16, abs=1e-12)
        assert doc["entropies"]["H_AB"] == pytest.approx(1.8458, abs=5e-4)

    def test_formats_agree_to_machine_precision(self, capsys):
        _, json_out, _ = run_cli(capsys, "entropy", "ocb", "--format", "json")
        doc = json.loads(json_out)
        _, csv_out, _ = run_cli(capsys, "entropy", "ocb", "--format", "csv")
        rows = parse_csv(csv_out)
        for row in rows:
            value = float(row["value"])
            if row["record"] == "cond":
                key = ",".join(row[k] for k in ("a", "b", "x", "y"))
                assert value == pytest.approx(doc["cond_probs"][key], abs=1e-12)
            elif row["record"] == "joint":
                key = f"{row['a']},{row['b']}"
                assert value == pytest.approx(doc["joint"][key], abs=1e-12)
            else:
                assert value == pytest.approx(doc["entropies"][row["a"]], abs=1e-12)

    def test_text_six_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "entropy", "ocb")
        assert "0.853553" in out  # conditional probability at x=0, y=1

    def test_mixed_file_process(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"IIII": 0.25}))
        code, out, _ = run_cli(capsys, "entropy", "--file", str(path), "--format", "json")
        doc = json.loads(out)
        # frozen value from the naive pre-build oracle on the trivial process
        assert doc["entropies"]["H_AB"] == pytest.approx(1.6225562489182659, abs=1e-12)

    def test_invalid_process_exit_1(self, capsys, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"IIII": 0.25, "IIIZ": 0.25}))
        code, _, err = run_cli(capsys, "entropy", "--file", str(path))
        assert code == 1
        assert "failed validation" in err

    def test_custom_inputs_file(self, capsys, tmp_path):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({"00": 1.0, "01": 0.0, "10": 0.0, "11": 0.0}))
        code, out, _ = run_cli(
            capsys, "entropy", "ocb", "--inputs", str(path), "--format", "json"
        )
        doc = json.loads(out)
        # with inputs pinned at (0,0) both parties forward and output 1
        assert doc["joint"]["1,1"] == pytest.approx(1.0, abs=1e-12)

    def test_custom_instruments_file(self, capsys, tmp_path):
        from procmat.instruments import gyni_strategy, instrument_to_pauli_maps

        data = {
            "A": instrument_to_pauli_maps(gyni_strategy("A")),
            "B": instrument_to_pauli_maps(gyni_strategy("B")),
        }
        path = tmp_path / "instruments.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(
            capsys, "entropy", "ocb", "--instruments", str(path), "--format", "json"
        )
        doc = json.loads(out)
        assert doc["entropies"]["H_AB"] == pytest.approx(1.8456526640405408, abs=1e-10)

    @pytest.mark.parametrize("key", ["22", "20"])
    def test_inputs_key_outside_table_exit_2(self, capsys, tmp_path, key):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({key: 1.0}))
        code, _, err = run_cli(capsys, "entropy", "ocb", "--inputs", str(path))
        assert code == 2
        assert "inputs.json" in err and repr(key) in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"00": NaN, "01": 0.5, "10": 0.25, "11": 0.25}', "finite"),
            ('{"00": "a", "01": 0.5}', "could not convert"),
            ('{"00": null}', "float"),
            ("[[0.5, 0.5]]", "2 x 2"),
            ("[[0.5], [0.25, 0.25]]", "sequence"),
        ],
    )
    @pytest.mark.parametrize("command", [("entropy", "ocb"), ("optimize", "feix")])
    def test_malformed_inputs_file_named_with_exit_2(
        self, capsys, tmp_path, monkeypatch, text, message, command
    ):
        import procmat.cli as cli

        def no_process(*_):
            raise AssertionError("a process was built before the inputs were checked")

        monkeypatch.setattr(cli, "ocb_process", no_process)
        path = tmp_path / "inputs.json"
        path.write_text(text)
        if command[0] == "optimize":
            command += ("--out", str(tmp_path / "out.json"))
        code, out, err = run_cli(capsys, *command, "--inputs", str(path))
        assert code == 2
        assert "inputs.json" in err and message in err
        assert out == ""

    @pytest.mark.parametrize("party_a", [[1, 2], {"0,0": 5}])
    def test_instruments_entry_not_an_object_exit_2(self, capsys, tmp_path, party_a):
        from procmat.instruments import gyni_strategy, instrument_to_pauli_maps

        path = tmp_path / "instruments.json"
        path.write_text(json.dumps({
            "A": party_a,
            "B": instrument_to_pauli_maps(gyni_strategy("B")),
        }))
        code, _, err = run_cli(capsys, "entropy", "ocb", "--instruments", str(path))
        assert code == 2
        assert "instruments.json" in err

    def test_instruments_entry_repeated_exit_2(self, capsys, tmp_path):
        from procmat.instruments import gyni_strategy, instrument_to_pauli_maps

        party_a = instrument_to_pauli_maps(gyni_strategy("A"))
        party_a[" 0,1"] = {"II": 0.5}
        path = tmp_path / "instruments.json"
        party_b = instrument_to_pauli_maps(gyni_strategy("B"))
        path.write_text(json.dumps({"A": party_a, "B": party_b}))
        code, out, err = run_cli(capsys, "entropy", "ocb", "--instruments", str(path))
        assert code == 2
        assert "instruments.json" in err and "'0,1' and ' 0,1'" in err and out == ""

    def test_non_finite_parameters_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", "feix", "--eps", "nan")
        assert code == 2
        assert "eps" in err
        path = tmp_path / "nan.json"
        path.write_text('{"c_0zz": NaN}')
        code, _, err = run_cli(capsys, "validate", "sep", "--params", str(path))
        assert code == 2
        assert "nan.json" in err and "finite" in err


class TestGame:
    def test_ocb_flags_violation(self, capsys):
        code, out, _ = run_cli(capsys, "game", "ocb")
        assert code == 0
        assert "VIOLATION" in out
        assert "0.533471" in out

    def test_zero_separable_within_bound(self, capsys, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"q": 0.5}))
        code, out, _ = run_cli(capsys, "game", "sep", "--params", str(path))
        assert code == 0
        assert "within the causal bound" in out
        assert "0.3125" in out

    def test_feix_members_respect_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "feix", "--q", "1.0", "--eps", "0.0", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["p_succ"] <= 0.5 + 1e-9
        assert doc["violation"] is False

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "expected an object with keys A and B"), ("{}", "missing party key 'A'")],
    )
    def test_malformed_instruments_file_named_before_process(
        self, capsys, tmp_path, monkeypatch, text, message
    ):
        import procmat.cli as cli

        def no_process(*_):
            raise AssertionError("a process was built before the instruments were checked")

        monkeypatch.setattr(cli, "ocb_process", no_process)
        path = tmp_path / "instruments.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "game", "ocb", "--instruments", str(path))
        assert code == 2
        assert "instruments.json" in err and message in err
        assert out == ""

    def test_json_csv_agree(self, capsys):
        _, json_out, _ = run_cli(capsys, "game", "ocb", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "game", "ocb", "--format", "csv")
        doc = json.loads(json_out)
        row = parse_csv(csv_out)[0]
        assert float(row["p_succ"]) == pytest.approx(doc["p_succ"], abs=1e-12)


class TestOptimize:
    def test_feix_mode(self, capsys, tmp_path):
        out_path = tmp_path / "feix.json"
        code, out, _ = run_cli(
            capsys, "optimize", "feix", "--out", str(out_path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["best_value"] == pytest.approx(1.68, abs=0.02)
        assert doc["verdict"] == "inequality not satisfied"
        assert doc["manifest"]["rng"]["generator"].startswith("numpy PCG64")

    def test_manifest_records_numpy_version_and_cpu_count(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "optimize", "feix", "--out", str(tmp_path / "feix.json"), "--format", "json"
        )
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["numpy"] == np.__version__
        assert manifest["cpu_count"] == os.cpu_count()

    def test_sep_small_run_deterministic(self, capsys, tmp_path):
        args = [
            "optimize", "sep", "--restarts", "2", "--seed", "7",
            "--format", "json",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1, _, _ = run_cli(capsys, *args, "--out", str(out1))
        code2, _, _ = run_cli(capsys, *args, "--out", str(out2))
        assert code1 == code2 == 0
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        doc1["manifest"].pop("duration_s")
        doc2["manifest"].pop("duration_s")
        assert doc1 == doc2

    def test_sep_result_document_shape(self, capsys, tmp_path):
        out_path = tmp_path / "sep.json"
        code, out, _ = run_cli(
            capsys, "optimize", "sep", "--restarts", "2", "--seed", "7",
            "--jobs", "2", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["restarts"]) == 2
        assert doc["restarts"][0]["seed"] == 7
        assert doc["best_value"] == max(r["value"] for r in doc["restarts"])
        assert doc["reference"]["value"] == pytest.approx(1.8456526640405408, abs=1e-10)
        assert set(doc["best_params"]) > {"q", "c_0xx", "cp_zzz"}
        assert "verdict" in doc

    def test_trace_file(self, capsys, tmp_path):
        out_path = tmp_path / "sep.json"
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "optimize", "sep", "--restarts", "2", "--seed", "7",
            "--out", str(out_path), "--trace", str(trace_path),
        )
        assert code == 0
        rows = parse_csv(trace_path.read_text())
        assert {row["restart"] for row in rows} == {"0", "1"}
        values = [float(r["objective"]) for r in rows if r["restart"] == "0"]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_default_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PROCMAT_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "optimize", "feix")
        assert code == 0
        assert (tmp_path / "optimize_feix.json").exists()

    def test_feix_sep_max_override(self, capsys, tmp_path):
        out_path = tmp_path / "feix.json"
        code, _, _ = run_cli(
            capsys, "optimize", "feix", "--sep-max", "1.0", "--out", str(out_path)
        )
        doc = json.loads(out_path.read_text())
        assert doc["verdict"] == "inequality satisfied"

    @pytest.mark.parametrize("target", ["--out", "--trace", "PROCMAT_OUT_DIR"])
    def test_unwritable_output_path_exit_2_before_search(
        self, capsys, tmp_path, monkeypatch, target
    ):
        import procmat.cli as cli

        def no_search(*_, **__):
            raise AssertionError("the search ran before the output paths were checked")

        monkeypatch.setattr(cli, "multistart", no_search)
        missing = tmp_path / "missing"
        paths = {"--out": str(tmp_path / "sep.json"), "--trace": str(tmp_path / "trace.csv")}
        if target == "PROCMAT_OUT_DIR":
            monkeypatch.setenv(target, str(missing))
            del paths["--out"]
            bad = str(missing / "optimize_sep.json")
        else:
            bad = paths[target] = str(missing / "file")
        options = [item for pair in paths.items() for item in pair]
        code, out, err = run_cli(capsys, "optimize", "sep", "--restarts", "2", *options)
        assert code == 2
        assert bad in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "mode, option, value",
        [("sep", "--sep-max", "1.0"), ("feix", "--trace", "trace.csv")],
    )
    def test_option_of_the_other_mode_exit_2(self, capsys, tmp_path, mode, option, value):
        out_path = tmp_path / "result.json"
        code, out, err = run_cli(
            capsys, "optimize", mode, "--restarts", "2", "--out", str(out_path), option, value
        )
        assert code == 2
        assert option in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, capsys, tmp_path, tol):
        out_path = tmp_path / "sep.json"
        code, out, err = run_cli(capsys, "optimize", "sep", "--tol", tol, "--out", str(out_path))
        assert code == 2
        assert "sweep_tol must be positive and finite" in err and out == ""
        assert not out_path.exists()

    def test_feix_neither_checks_nor_records_sep_options(self, capsys, tmp_path):
        docs = []
        for extra in ((), ("--restarts", "0", "--tol", "nan")):
            out_path = tmp_path / f"feix{len(docs)}.json"
            code, _, err = run_cli(capsys, "optimize", "feix", *extra, "--out", str(out_path))
            assert code == 0 and err == ""
            doc = json.loads(out_path.read_text())
            doc["manifest"].pop("duration_s")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert not {"restarts", "sweep_tol", "max_sweeps"} & set(docs[0]["manifest"]["config"])

    def test_sep_rows_record_centering(self, capsys, tmp_path):
        rows = {}
        for fmt in ("json", "csv"):
            argv = ("optimize", "sep", "--restarts", "2", "--tol", "1e-2", "--format", fmt)
            code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / f"{fmt}.json"))
            assert code == 0
            rows[fmt] = json.loads(out)["restarts"] if fmt == "json" else parse_csv(out)
        centering = [(r["centering_passes"], r["centering_stop"]) for r in rows["json"]]
        assert centering == [
            (int(r["centering_passes"]), r["centering_stop"]) for r in rows["csv"]
        ]
        assert all(passes >= 1 and stop == "converged" for passes, stop in centering)

    def test_sep_rows_record_ascent_stop(self, capsys, tmp_path):
        rows = {}
        for fmt in ("json", "csv"):
            argv = ("optimize", "sep", "--restarts", "2", "--tol", "1e-2", "--format", fmt)
            code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / f"{fmt}.json"))
            assert code == 0
            rows[fmt] = json.loads(out)["restarts"] if fmt == "json" else parse_csv(out)
        assert list(rows["csv"][0])[-2:] == ["centering_stop", "ascent_stop"]
        for fmt in ("json", "csv"):
            assert [r["ascent_stop"] for r in rows[fmt]] == ["converged"] * 2

    def test_sep_rows_record_final_block_slack(self, capsys, tmp_path):
        rows = {}
        for fmt in ("json", "csv"):
            argv = ("optimize", "sep", "--restarts", "2", "--tol", "1e-2", "--format", fmt)
            code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / f"{fmt}.json"))
            assert code == 0
            rows[fmt] = json.loads(out)["restarts"] if fmt == "json" else parse_csv(out)
        assert list(rows["csv"][0])[3:6] == ["sweeps", "min_eig_ab", "min_eig_ba"]
        assert list(rows["json"][0]) == list(rows["csv"][0])
        for key in ("min_eig_ab", "min_eig_ba"):
            assert [float(r[key]) for r in rows["csv"]] == [r[key] for r in rows["json"]]
            assert all(r[key] >= -1e-10 for r in rows["json"])

    def test_feix_records_eps_inert_under_gyni(self, capsys, tmp_path):
        out_path = tmp_path / "feix.json"
        code, out, _ = run_cli(capsys, "optimize", "feix", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["eps_inert"] is True
        assert "note: eps is inert" in out

    def test_feix_eps_not_inert_when_bob_measures_x(self, capsys, tmp_path):
        from procmat.instruments import instrument_to_pauli_maps

        # on input 1 Bob measures B_I in the X basis, (I +- X)/2, and sends |0><0|
        bob = instrument_to_pauli_maps(gyni_strategy("B"))
        bob["1,0"] = {"II": 0.25, "IZ": 0.25, "XI": 0.25, "XZ": 0.25}
        bob["1,1"] = {"II": 0.25, "IZ": 0.25, "XI": -0.25, "XZ": -0.25}
        path = tmp_path / "instruments.json"
        path.write_text(json.dumps({"A": instrument_to_pauli_maps(gyni_strategy("A")), "B": bob}))
        out_path = tmp_path / "feix.json"
        code, out, _ = run_cli(
            capsys, "optimize", "feix", "--instruments", str(path), "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["eps_inert"] is False
        assert "note: eps is inert" not in out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, tmp_path, jobs):
        out_path = tmp_path / "sep.json"
        code, out, err = run_cli(
            capsys, "optimize", "sep", "--restarts", "2", "--jobs", jobs, "--out", str(out_path)
        )
        assert code == 2
        assert "jobs" in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_feix_jobs_below_one_exit_2_before_search(self, capsys, tmp_path, monkeypatch, jobs):
        import procmat.cli as cli

        def no_search(*_, **__):
            raise AssertionError("the search ran before --jobs was checked")

        monkeypatch.setattr(cli, "feix_maximize", no_search)
        out_path = tmp_path / "feix.json"
        code, out, err = run_cli(capsys, "optimize", "feix", "--jobs", jobs, "--out", str(out_path))
        assert code == 2
        assert "jobs" in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "mode, target", [("sep", "--out"), ("sep", "--trace"), ("feix", "--out")]
    )
    def test_output_path_naming_a_directory_exit_2_before_search(
        self, capsys, tmp_path, monkeypatch, mode, target
    ):
        import procmat.cli as cli

        def no_search(*_, **__):
            raise AssertionError("the search ran before the output paths were checked")

        monkeypatch.setattr(cli, "multistart", no_search)
        monkeypatch.setattr(cli, "feix_maximize", no_search)
        directory = tmp_path / "existing"
        directory.mkdir()
        paths = {"--out": str(tmp_path / "result.json")}
        paths[target] = str(directory)
        options = [item for pair in paths.items() for item in pair]
        code, out, err = run_cli(capsys, "optimize", mode, "--restarts", "2", *options)
        assert code == 2
        assert f"error: cannot write {directory}:" in err and out == ""
        assert list(tmp_path.iterdir()) == [directory]
        assert list(directory.iterdir()) == []


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sep_max_exit_2_before_search(self, capsys, tmp_path, monkeypatch, value):
        import procmat.cli as cli

        def no_search(*_, **__):
            raise AssertionError("the search ran before --sep-max was checked")

        monkeypatch.setattr(cli, "feix_maximize", no_search)
        out_path = tmp_path / "feix.json"
        code, out, err = run_cli(
            capsys, "optimize", "feix", f"--sep-max={value}", "--out", str(out_path)
        )
        assert code == 2
        assert "--sep-max must be finite" in err and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("options, recorded", [((), None), (("--sep-max", "1.0"), 1.0)])
    def test_feix_records_sep_max(self, capsys, tmp_path, options, recorded):
        out_path = tmp_path / "feix.json"
        code, out, _ = run_cli(
            capsys, "optimize", "feix", *options, "--out", str(out_path), "--format", "json"
        )
        assert code == 0
        for doc in (json.loads(out), json.loads(out_path.read_text())):
            config = doc["manifest"]["config"]
            assert "sep_max" in config and config["sep_max"] == recorded

    def test_trace_and_out_naming_the_same_file_exit_2_before_search(
        self, capsys, tmp_path, monkeypatch
    ):
        import procmat.cli as cli

        def no_search(*_, **__):
            raise AssertionError("the search ran before the output paths were compared")

        monkeypatch.setattr(cli, "multistart", no_search)
        monkeypatch.chdir(tmp_path)
        for trace in ("result", str(tmp_path / "result")):
            code, out, err = run_cli(
                capsys, "optimize", "sep", "--restarts", "1", "--tol", "1e-2",
                "--trace", trace, "--out", "result",
            )
            assert code == 2
            assert "--trace and --out name the same file" in err and out == ""
        assert list(tmp_path.iterdir()) == []


class TestSeparableFloor:
    """``optimize feix`` takes its separable floor from the Feix plane it
    searches, with no Feix process built."""

    @staticmethod
    def process_floor(name, inputs):
        # the 101-point eps = 0 floor through the process route
        ins_a, ins_b = gyni_strategy("A"), gyni_strategy("B")
        tables = (
            cond_probs(feix_process(FeixParams(q, 0.0)), ins_a, ins_b)
            for q in np.linspace(0.0, 1.0, 101)
        )
        return max(objective(name, joint_dist(table, inputs)) for table in tables)

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
    @pytest.mark.parametrize("name", ["H_AB", "I_AB"])
    def test_floor_needs_no_feix_process(self, capsys, tmp_path, monkeypatch, kind, name):
        import procmat.cli as cli

        inputs, options = InputDist.uniform(), []
        if kind == "dirichlet":
            probs = SEEDED["feix_dirichlet"]["inputs"]
            path = tmp_path / "inputs.json"
            path.write_text(json.dumps(probs))
            inputs, options = InputDist(np.array(probs)), ["--inputs", str(path)]
        expected = self.process_floor(name, inputs)

        def no_process(*_, **__):
            raise AssertionError("optimize feix built a Feix process")

        monkeypatch.setattr(cli, "feix_process", no_process)
        code, out, _ = run_cli(
            capsys, "optimize", "feix", "--objective", name, *options,
            "--out", str(tmp_path / "feix.json"), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["separable_floor"] - expected) <= 1e-15
        assert doc["verdict"] == "inequality not satisfied"


class TestFormatsAgree:
    """The JSON and CSV renderings of one command carry equal values."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "ocb"),
            ("optimize", "sep", "--restarts", "2", "--tol", "1e-2"),
            ("optimize", "feix"),
        ],
        ids=["validate", "optimize-sep", "optimize-feix"],
    )
    def test_json_csv_agree(self, capsys, tmp_path, argv):
        outputs = {}
        for fmt in ("json", "csv"):
            out_path = ("--out", str(tmp_path / f"{fmt}.json")) if argv[0] == "optimize" else ()
            code, outputs[fmt], _ = run_cli(capsys, *argv, *out_path, "--format", fmt)
            assert code == 0
        doc = json.loads(outputs["json"])
        lines = outputs["csv"].splitlines()
        manifest = json.loads(lines[0].removeprefix("# manifest: "))
        manifest.pop("duration_s")
        doc["manifest"].pop("duration_s")
        assert manifest == doc["manifest"]
        rows = parse_csv(outputs["csv"])
        trailer = [line.removeprefix("# ") for line in lines[1:] if line.startswith("#")]
        if argv[0] == "validate":
            assert [
                (r["name"], float(r["residual"]), float(r["tolerance"]), r["passed"])
                for r in rows
            ] == [
                (c["name"], c["residual"], c["tolerance"], str(c["passed"]))
                for c in doc["checks"]
            ]
            assert trailer == []
        elif argv[1] == "sep":
            assert [
                (int(r["restart"]), int(r["seed"]), float(r["value"]), int(r["sweeps"]))
                for r in rows
            ] == [(r["restart"], r["seed"], r["value"], r["sweeps"]) for r in doc["restarts"]]
            best, reference, verdict = re.fullmatch(
                r"best_value: (\S+)  reference: (\S+)  verdict: (.*)", trailer[0]
            ).groups()
            assert float(best) == doc["best_value"]
            assert float(reference) == doc["reference"]["value"]
            assert verdict == doc["verdict"] and len(trailer) == 1
        else:
            [row] = rows
            assert float(row["q"]) == doc["best_params"]["q"]
            assert float(row["eps"]) == doc["best_params"]["eps"]
            assert float(row["value"]) == doc["best_value"]
            assert trailer == [f"verdict: {doc['verdict']}"]
