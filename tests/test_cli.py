import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from khnn import layers as L
from khnn.algebra import predefined, predefined_names
from khnn.cli import _make_optimizer, main
from khnn.layers import Dense, HyperConv2D, HyperDense
from khnn.tensor import Tensor


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgebraShow:
    def test_complex_row(self, capsys):
        code, out, _ = run(capsys, "algebra-show", "complex")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("e1"))
        assert "e1" in row and "-e0" in row

    def test_reals_table(self, capsys):
        code, out, _ = run(capsys, "algebra-show", "reals")
        assert code == 0
        assert "e0 | e0" in out

    def test_quaternion_product_cell(self, capsys):
        code, out, _ = run(capsys, "algebra-show", "quaternions")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("e1 "))
        cells = [c.strip() for c in row.split("|")[1].split("  ") if c.strip()]
        assert cells[2] == "e3"  # e1 * e2

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "algebra-show", "nonsense")
        assert code == 2
        assert "Quaternions" in err

    def test_algebra_file(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(
            {"name": "twisted", "dim": 2, "entries": [[1, 1, 0, -1.0]]}))
        code, out, _ = run(capsys, "algebra-show", str(path))
        assert code == 0
        assert "twisted" in out


class TestAlgebraCheck:
    def test_octonions(self, capsys):
        code, out, _ = run(capsys, "algebra-check", "octonions")
        assert code == 0
        assert "associative: False" in out
        assert "alternative: True" in out

    def test_unit_violation_exit_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(
            {"name": "broken", "dim": 2, "entries": [[0, 1, 0, 1.0]]}))
        code, out, _ = run(capsys, "algebra-check", str(path))
        assert code == 1
        assert "unit:        False" in out

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "algebra-check", str(path))
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("doc", [{"dim": 2, "entries": 5},
                                     {"dim": 2.7, "entries": []}])
    def test_mistyped_file_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "algebra-check", str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: algebra file {path}")


class TestTrainXor:
    def test_quick_run_writes_history(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train-xor", "--epochs", "3",
                           "--out", str(tmp_path))
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 4
        assert "correct:" in out
        assert code in (0, 1)  # undertrained runs may miss the gate

    def test_single_epoch_row_count(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train-xor", "--epochs", "1",
                         "--out", str(tmp_path))
        assert code in (0, 1)
        assert len((tmp_path / "history.csv").read_text().splitlines()) == 2

    def test_octonions_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "train-xor", "--algebra", "octonions",
                           "--out", str(tmp_path))
        assert code == 2
        assert "dim 8" in err

    def test_complex_algebra_runs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train-xor", "--algebra", "complex",
                           "--epochs", "5", "--out", str(tmp_path))
        assert code in (0, 1)
        assert "correct:" in out

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "train-xor", "--epochs", "20", "--seed", "7", "--out", str(a))
        run(capsys, "train-xor", "--epochs", "20", "--seed", "7", "--out", str(b))
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("KHNN_SEED", "7")
        run(capsys, "train-xor", "--epochs", "10", "--out", str(a))
        monkeypatch.delenv("KHNN_SEED")
        run(capsys, "train-xor", "--epochs", "10", "--seed", "7", "--out", str(b))
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("KHNN_SEED", "1")
        run(capsys, "train-xor", "--epochs", "10", "--seed", "7", "--out", str(a))
        monkeypatch.setenv("KHNN_SEED", "2")
        run(capsys, "train-xor", "--epochs", "10", "--seed", "7", "--out", str(b))
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_non_integer_env_seed_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KHNN_SEED", "abc")
        code, _, err = run(capsys, "train-xor", "--epochs", "1", "--out", str(tmp_path))
        assert code == 2
        assert err == "error: KHNN_SEED='abc' is not an integer\n"
        assert not (tmp_path / "history.csv").exists()

    def test_sgd_default_rate(self):
        assert _make_optimizer("sgd", None).lr == 0.015
        assert _make_optimizer("sgd", 0.5).lr == 0.5

    def test_bad_epochs_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "train-xor", "--epochs", "0",
                           "--out", str(tmp_path))
        assert code == 2
        assert "epochs" in err

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.01", "0"])
    def test_bad_lr_exit_2(self, capsys, tmp_path, lr):
        code, _, err = run(capsys, "train-xor", f"--lr={lr}", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: lr must be finite and > 0")
        assert not (tmp_path / "history.csv").exists()

    def test_divergence_exit_1(self, capsys, tmp_path):
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "train-xor", "--lr", "1e308", "--epochs", "50",
                               "--out", str(tmp_path))
        assert code == 1
        assert "training diverged" in err
        assert not (tmp_path / "history.csv").exists()


class TestTrainSynthImages:
    def test_smoke_run_writes_outputs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train-synth-images", "--epochs", "2",
                           "--filters", "2", "--out", str(tmp_path))
        assert code == 0
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy,val_loss,val_accuracy"
        assert len(history) == 3
        evaluation = (tmp_path / "eval.csv").read_text().splitlines()
        assert evaluation[0] == "loss,accuracy"
        assert len(evaluation) == 2
        assert "test" in out

    def test_zero_filters_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "train-synth-images", "--filters", "0",
                           "--out", str(tmp_path))
        assert code == 2
        assert "filters" in err

    def test_indivisible_channels_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "train-synth-images", "--algebra", "octonions",
                           "--out", str(tmp_path))
        assert code == 2
        assert "dim 8" in err
        assert not (tmp_path / "history.csv").exists()

    def test_alpha_zero_mode(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train-synth-images", "--epochs", "1",
                         "--filters", "2", "--alpha-zero", "--out", str(tmp_path))
        assert code == 0

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train-synth-images", "--epochs", "2", "--filters", "2",
                "--seed", "5"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()


class TestParamReport:
    def test_quaternion_dense(self, capsys):
        code, out, _ = run(capsys, "param-report", "--algebra", "quaternions",
                           "--units", "10", "--width", "4")
        assert code == 0
        assert "40" in out and "160" in out
        assert "ratio (real/hyper): 4" in out

    def test_reals_ratio_one(self, capsys):
        code, out, _ = run(capsys, "param-report", "--algebra", "reals",
                           "--units", "3", "--width", "5")
        assert code == 0
        assert "ratio (real/hyper): 1" in out

    def test_complex_small(self, capsys):
        code, out, _ = run(capsys, "param-report", "--algebra", "complex",
                           "--units", "1", "--width", "2")
        assert code == 0
        assert "ratio (real/hyper): 2" in out

    def test_conv_mode(self, capsys):
        code, out, _ = run(capsys, "param-report", "--algebra", "quaternions",
                           "--filters", "2", "--width", "4")
        assert code == 0
        assert "ratio (real/hyper): 4" in out

    def test_indivisible_width_exit_2(self, capsys):
        code, _, err = run(capsys, "param-report", "--algebra", "quaternions",
                           "--units", "1", "--width", "6")
        assert code == 2
        assert "multiple" in err

    @pytest.mark.parametrize("flags,name", [
        (["--units", "0", "--width", "4"], "--units"),
        (["--units", "-3", "--width", "4"], "--units"),
        (["--filters", "0", "--width", "4"], "--filters"),
        (["--filters", "2", "--kernel", "0", "--width", "4"], "--kernel"),
        (["--units", "1", "--width", "0"], "--width"),
    ])
    def test_sizes_below_one_exit_2(self, capsys, flags, name):
        code, out, err = run(capsys, "param-report", *flags)
        assert code == 2
        assert out == "" and err.startswith(f"error: {name} must be >= 1")

    @pytest.mark.parametrize("mode", ["dense", "conv"])
    @pytest.mark.parametrize("name", predefined_names())
    def test_counts_are_the_built_layers_param_counts(self, capsys, name, mode):
        n = predefined(name).dim
        width = 2 * n
        if mode == "dense":
            flags = ["--units", "3"]
            layers = (HyperDense(3, algebra=name), Dense(3 * n))
            x = np.zeros((1, width))
        else:
            flags = ["--filters", "2", "--kernel", "2"]
            layers = (HyperConv2D(2, 2, algebra=name),
                      HyperConv2D(2 * n, 2, algebra="reals"))
            x = np.zeros((1, 3, 3, width))
        code, out, _ = run(capsys, "param-report", "--algebra", name, *flags,
                           "--width", str(width))
        assert code == 0
        rows = {line.split()[0]: [int(v) for v in line.split()[1:]]
                for line in out.splitlines() if line.startswith(("weights", "biases"))}
        for column, layer in enumerate(layers):
            layer(Tensor(x))
            assert rows["weights"][column] == layer.weights.data.size
            assert rows["weights"][column] + rows["biases"][column] == layer.param_count()

    def test_allocates_no_weights(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("param-report drew weights")

        monkeypatch.setattr(L, "glorot_uniform", refuse)
        code, out, _ = run(capsys, "param-report", "--algebra", "octonions",
                           "--units", "4096", "--width", "4096")
        assert code == 0
        assert "134217728" in out


class TestUsage:
    def test_module_entry_point_runs(self):
        # the console script calls the same cli.entry
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "khnn.cli", "algebra-check", "octonions"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "alternative: True" in done.stdout.splitlines()

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
