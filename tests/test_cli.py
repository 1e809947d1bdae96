"""End-to-end CLI contract: generate -> bases -> train -> eval."""

import dataclasses
import json

import numpy as np
import pytest

from derivop.cli import main
from derivop.datagen import load_dataset, save_dataset


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small toy pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data, test, bas = root / "data", root / "test", root / "bas"
    assert main(["generate", "--problem", "toy", "--n", "16", "--rank", "5",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["generate", "--problem", "toy", "--n", "8", "--rank", "5",
                 "--seed", "2", "--out", str(test)]) == 0
    assert main(["bases", "--data", str(data), "--rank-in", "6",
                 "--rank-out", "5", "--out", str(bas)]) == 0
    return root


class TestGenerate:
    def test_writes_manifest_and_arrays(self, pipeline):
        names = {p.name for p in (pipeline / "data").iterdir()}
        assert names == {"manifest.json", "m.bin", "q.bin", "jac_U.bin",
                         "jac_sigma.bin", "jac_V.bin"}

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        assert main(["generate", "--problem", "toy", "--n", "16", "--rank",
                     "5", "--seed", "1", "--out", str(tmp_path / "d")]) == 0
        for f in sorted((pipeline / "data").iterdir()):
            assert f.read_bytes() == (tmp_path / "d" / f.name).read_bytes()

    def test_invalid_rank_fails(self, tmp_path, capsys):
        assert main(["generate", "--problem", "toy", "--n", "2", "--rank",
                     "0", "--out", str(tmp_path / "d")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_invalid_thread_count_fails(self, tmp_path, capsys, threads):
        # generate has no --threads flag: a thread count is refused as an
        # unknown argument, not silently ignored, and nothing is written
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--problem", "toy", "--n", "2", "--rank", "4",
                  "--threads", threads, "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_negative_oversample_fails(self, tmp_path, capsys):
        # a setting error, raised before any sample is solved
        assert main(["generate", "--grid", "9", "--n", "2", "--rank", "4",
                     "--oversample", "-1", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sample 0" not in err
        assert not (tmp_path / "d").exists()

    def test_rd_problem_smoke(self, tmp_path):
        assert main(["generate", "--problem", "rd", "--grid", "9", "--n",
                     "2", "--rank", "6", "--seed", "3",
                     "--out", str(tmp_path / "d")]) == 0


class TestBases:
    def test_method_flag_changes_tag(self, pipeline, tmp_path):
        data = pipeline / "data"
        assert main(["bases", "--data", str(data), "--method", "pca",
                     "--rank-in", "5", "--rank-out", "4",
                     "--out", str(tmp_path / "p")]) == 0
        pca = json.loads((tmp_path / "p" / "manifest.json").read_text())
        deriv = json.loads(
            (pipeline / "bas" / "manifest.json").read_text())
        assert pca["tag"] == "pca"
        assert deriv["tag"] == "derivative-informed"

    def test_ranks_echoed_in_manifest(self, pipeline):
        manifest = json.loads(
            (pipeline / "bas" / "manifest.json").read_text())
        assert manifest["rank_in"] == 6
        assert manifest["rank_out"] == 5

    def test_excess_rank_fails(self, pipeline, tmp_path):
        assert main(["bases", "--data", str(pipeline / "data"),
                     "--rank-in", "999", "--out", str(tmp_path / "b")]) == 1


class TestTrain:
    def test_smoke_run_history_length(self, pipeline, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(pipeline / "data"), "--arch",
                     "dipnet", "--loss", "h1full", "--bases",
                     str(pipeline / "bas"), "--epochs", "2",
                     "--out", str(out)]) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert {"epoch", "train_loss"} <= set(json.loads(lines[0]))

    def test_seed_determinism(self, pipeline, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(pipeline / "data"), "--arch",
                         "generic", "--loss", "l2", "--epochs", "2",
                         "--seed", "9", "--out", str(out)]) == 0
            outs.append((out / "model" / "weights.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_history_rerun_byte_identical_strict_json(self, pipeline,
                                                      tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        histories = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(pipeline / "data"), "--arch",
                         "generic", "--loss", "h1full", "--epochs", "2",
                         "--seed", "3", "--out", str(out)]) == 0
            histories.append((out / "history.jsonl").read_bytes())
        assert histories[0] == histories[1]
        records = [json.loads(line, parse_constant=reject)
                   for line in histories[0].decode().splitlines()]
        assert [r["holdout_loss"] for r in records] == [None, None]

    def test_ms_k_exceeding_rank_fails(self, pipeline, tmp_path):
        assert main(["train", "--data", str(pipeline / "data"), "--arch",
                     "generic", "--loss", "h1truncms", "--k", "8",
                     "--epochs", "1", "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("flag", [("--batch-size", "-4"),
                                      ("--batch-size", "0"),
                                      ("--epochs", "-2"),
                                      ("--hidden-width", "0"),
                                      ("--hidden-layers", "-1"),
                                      ("--lr", "-1"),
                                      ("--lr", "0"),
                                      ("--lr", "nan")],
                             ids=lambda flag: f"{flag[0][2:]}={flag[1]}")
    def test_empty_net_or_schedule_fails(self, pipeline, tmp_path, capsys,
                                         flag):
        out = tmp_path / "r"
        assert main(["train", "--data", str(pipeline / "data"), "--arch",
                     "generic", "--loss", "l2", *flag,
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_dipnet_without_bases_fails(self, pipeline, tmp_path):
        assert main(["train", "--data", str(pipeline / "data"), "--arch",
                     "dipnet", "--loss", "l2", "--epochs", "1",
                     "--out", str(tmp_path / "r")]) == 1


@pytest.fixture(scope="module")
def run(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--data", str(pipeline / "data"), "--arch",
                 "dipnet", "--loss", "l2", "--bases",
                 str(pipeline / "bas"), "--epochs", "2",
                 "--out", str(out)]) == 0
    return out


class TestEval:
    def test_metric_subset_respected(self, pipeline, run, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--run", str(run), "--data",
                     str(pipeline / "test"), "--metrics", "l2,h1",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["accuracies"]) == {"l2", "h1"}
        assert (out / "l2.csv").exists() and (out / "h1.csv").exists()

    def test_config_echoed(self, pipeline, run, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--run", str(run), "--data",
                     str(pipeline / "test"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["data"] == str(pipeline / "test")
        assert "noise_std" in report["config"]

    def test_all_skipped_metric_is_null(self, pipeline, run, tmp_path,
                                        capsys):
        # a loadable test set whose stored sigma are all 0: every sample of
        # h1, grad, gn and rgn is skipped
        ds = load_dataset(pipeline / "test")
        save_dataset(dataclasses.replace(
            ds, jac_sigma=np.zeros_like(ds.jac_sigma)), tmp_path / "flat")
        out = tmp_path / "ev"
        assert main(["eval", "--run", str(run), "--data",
                     str(tmp_path / "flat"), "--out", str(out)]) == 0
        assert "h1=n/a" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["accuracies"]["gn"] is None

    def test_unknown_metric_fails(self, pipeline, run, tmp_path):
        assert main(["eval", "--run", str(run), "--data",
                     str(pipeline / "test"), "--metrics", "l2,banana",
                     "--out", str(tmp_path / "ev")]) == 1

    @pytest.mark.parametrize("flag", [("--n-misfit", "0"),
                                      ("--noise-pct", "-0.01")])
    def test_bad_noise_setting_fails(self, pipeline, run, tmp_path, capsys,
                                     flag):
        out = tmp_path / "ev"
        assert main(["eval", "--run", str(run), "--data",
                     str(pipeline / "test"), *flag, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestHelp:
    @pytest.mark.parametrize("sub", [[], ["generate"], ["bases"], ["train"],
                                     ["eval"]])
    def test_help_exits_zero(self, sub):
        with pytest.raises(SystemExit) as info:
            main([*sub, "--help"])
        assert info.value.code == 0
