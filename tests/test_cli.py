from __future__ import annotations

import numpy as np
import pytest

from clozebase.cli import main
from clozebase.corpus import (ClozeInstance, parse_cloze_csv, write_cloze_csv,
                              write_roc_csv)
from clozebase.linear import load_model
from clozebase.neural import load_checkpoint

from conftest import EMBED_DIM, VOCAB, make_instances, make_stories


@pytest.fixture()
def glove_path(tmp_path_factory):
    """The session embedding table, serialized as whitespace text."""
    rng = np.random.default_rng(12345)
    path = tmp_path_factory.mktemp("emb") / "vectors.txt"
    with open(path, "w", encoding="utf-8") as handle:
        for word in VOCAB:
            vec = rng.standard_normal(EMBED_DIM)
            handle.write(word + " " + " ".join(repr(float(v)) for v in vec)
                         + "\n")
    return str(path)


@pytest.fixture()
def roc_path(tmp_path):
    path = tmp_path / "stories.csv"
    write_roc_csv(path, make_stories(12, seed=80))
    return str(path)


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "instances.csv"
    write_cloze_csv(path, make_instances(20, seed=81))
    return str(path)


class TestGenData:
    @pytest.mark.parametrize("strategy", ["random", "shared", "coherent"])
    def test_strategies_produce_labeled_instances(self, strategy, roc_path,
                                                  tmp_path, capsys):
        out = str(tmp_path / f"gen-{strategy}.csv")
        code = main(["gen-data", "--roc", roc_path, "--strategy", strategy,
                     "--k", "3", "--seed", "7", "--out", out])
        assert code == 0
        instances = parse_cloze_csv(out)
        assert len(instances) == 12 * 3
        assert all(inst.gold in (1, 2) for inst in instances)
        assert f"wrote {len(instances)} instances" in capsys.readouterr().out

    def test_deterministic_output(self, roc_path, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["gen-data", "--roc", roc_path, "--strategy", "random",
                         "--k", "2", "--seed", "3", "--out", out]) == 0
            outs.append(open(out, encoding="utf-8").read())
        assert outs[0] == outs[1]

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        code = main(["gen-data", "--roc", str(tmp_path / "nope.csv"),
                     "--strategy", "random", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestLinearPipeline:
    def test_extract_train_eval_round_trip(self, data_path, glove_path,
                                           tmp_path, capsys):
        features = str(tmp_path / "features.csv")
        model = str(tmp_path / "model.txt")

        code = main(["extract", "--data", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--config", "sims-only", "--swap-augment",
                     "--out", features])
        assert code == 0
        assert "wrote 40 x" in capsys.readouterr().out   # 20 doubled

        code = main(["train-linear", "--features", features,
                     "--cv-folds", "3", "--c-grid", "0.1,1.0",
                     "--model-out", model])
        assert code == 0
        out = capsys.readouterr().out
        assert "best C" in out
        assert load_model(model).c in (0.1, 1.0)

        code = main(["eval", "--model", model, "--data", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "on 20 instances" in out
        acc = float(out.split()[1])
        assert 0.0 <= acc <= 1.0

    def test_extract_rejects_unlabeled(self, glove_path, tmp_path, capsys):
        data = tmp_path / "unlabeled.csv"
        write_cloze_csv(data, make_instances(4, seed=82, labeled=False))
        code = main(["extract", "--data", str(data),
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_c_grid_rejected(self, data_path, glove_path, tmp_path,
                                   capsys):
        features = str(tmp_path / "features.csv")
        main(["extract", "--data", data_path, "--embeddings", glove_path,
              "--format", "glove-txt", "--config", "endings-only",
              "--out", features])
        capsys.readouterr()
        code = main(["train-linear", "--features", features, "--c-grid", ",",
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "error: empty C grid" in capsys.readouterr().err


class TestLstmPipeline:
    def test_train_eval_and_filter(self, data_path, glove_path, tmp_path,
                                   capsys):
        checkpoint = str(tmp_path / "lstm.npz")
        code = main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--variant", "raw", "--hidden", "4", "--batch", "8",
                     "--epochs", "2", "--restarts", "2", "--seed", "1",
                     "--model-out", checkpoint])
        assert code == 0
        out = capsys.readouterr().out
        assert "restart 0:" in out and "restart 1:" in out
        assert "checkpoint saved" in out
        load_checkpoint(checkpoint)

        code = main(["eval", "--model", checkpoint, "--data", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt"])
        assert code == 0
        assert "on 20 instances" in capsys.readouterr().out

        kept = str(tmp_path / "kept.csv")
        code = main(["filter", "--data", data_path, "--models", checkpoint,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--out", kept])
        assert code == 0
        assert "kept" in capsys.readouterr().out
        survivors = parse_cloze_csv(kept)
        assert len(survivors) <= 20

    def test_eval_with_table_of_another_width(self, data_path, glove_path,
                                              tmp_path, capsys):
        checkpoint = str(tmp_path / "lstm.npz")
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--hidden", "4", "--batch", "8", "--epochs", "1",
                     "--model-out", checkpoint]) == 0
        narrow = tmp_path / "narrow.txt"
        narrow.write_text("".join(f"{w} 0.5 -0.5 0.25\n" for w in VOCAB),
                          encoding="utf-8")
        capsys.readouterr()
        code = main(["eval", "--model", checkpoint, "--data", data_path,
                     "--embeddings", str(narrow), "--format", "glove-txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert "instance inst-000" in err
        assert f"input width 3 does not match the model's input_size {EMBED_DIM}" in err

    def test_empty_ending_row_with_both_model_kinds(self, data_path,
                                                    glove_path, tmp_path,
                                                    capsys):
        checkpoint = str(tmp_path / "lstm.npz")
        features = str(tmp_path / "features.csv")
        linear = str(tmp_path / "model.txt")
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--hidden", "4", "--batch", "8", "--epochs", "1",
                     "--model-out", checkpoint]) == 0
        assert main(["extract", "--data", data_path, "--embeddings", glove_path,
                     "--format", "glove-txt", "--config", "sims-only",
                     "--out", features]) == 0
        assert main(["train-linear", "--features", features, "--cv-folds", "2",
                     "--c-grid", "1.0", "--model-out", linear]) == 0
        instances = make_instances(4, seed=86)
        instances[1] = ClozeInstance(instances[1].id, instances[1].context,
                                     instances[1].ending1, "", 1)
        data = tmp_path / "empty-ending.csv"
        write_cloze_csv(data, instances)
        capsys.readouterr()
        for model in (checkpoint, linear):
            code = main(["eval", "--model", model, "--data", str(data),
                         "--embeddings", glove_path, "--format", "glove-txt"])
            assert code == 0, capsys.readouterr().err
            assert "on 4 instances" in capsys.readouterr().out
            kept = str(tmp_path / "kept.csv")
            assert main(["filter", "--data", str(data), "--models", model,
                         "--embeddings", glove_path, "--format", "glove-txt",
                         "--out", kept]) == 0

    def test_variant_choices_enforced(self, data_path, glove_path, capsys):
        with pytest.raises(SystemExit):
            main(["train-lstm", "--dev", data_path, "--embeddings", glove_path,
                  "--format", "glove-txt", "--variant", "bogus"])


class TestAblate:
    def test_tiny_grid(self, tmp_path, glove_path, capsys):
        dev = tmp_path / "dev.csv"
        test = tmp_path / "test.csv"
        write_cloze_csv(dev, make_instances(10, seed=83))
        write_cloze_csv(test, make_instances(4, seed=84))
        out = str(tmp_path / "ablation.csv")
        code = main(["ablate", "--dev", str(dev), "--test", str(test),
                     "--embeddings", f"toy={glove_path}:glove-txt",
                     "--configs", "endings-only", "sims-only",
                     "--cv-folds", "2", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "toy:" in printed
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "embeddings,endings-only,sims-only"
        assert len(lines) == 2

    @pytest.mark.parametrize("spec", ["noformat.txt", "name=path",
                                      "name=path:nope"])
    def test_malformed_embedding_spec(self, spec, tmp_path, glove_path,
                                      capsys):
        dev = tmp_path / "dev.csv"
        write_cloze_csv(dev, make_instances(4, seed=85))
        code = main(["ablate", "--dev", str(dev), "--test", str(dev),
                     "--embeddings", spec, "--configs", "endings-only",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFilterConsensus:
    def test_multiple_models_intersect(self, data_path, glove_path, tmp_path,
                                       capsys):
        features = str(tmp_path / "features.csv")
        model = str(tmp_path / "model.txt")
        main(["extract", "--data", data_path, "--embeddings", glove_path,
              "--format", "glove-txt", "--config", "sims-only",
              "--out", features])
        main(["train-linear", "--features", features, "--cv-folds", "2",
              "--c-grid", "1.0", "--model-out", model])
        capsys.readouterr()
        kept = str(tmp_path / "kept.csv")
        code = main(["filter", "--data", data_path, "--models", model, model,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--out", kept])
        assert code == 0
        survivors = parse_cloze_csv(kept)
        # duplicating the same predictor must not shrink the consensus set
        single = str(tmp_path / "single.csv")
        main(["filter", "--data", data_path, "--models", model,
              "--embeddings", glove_path, "--format", "glove-txt",
              "--out", single])
        assert [i.id for i in survivors] == \
            [i.id for i in parse_cloze_csv(single)]

    def test_unreadable_model_errors(self, data_path, glove_path, tmp_path,
                                     capsys):
        code = main(["filter", "--data", data_path,
                     "--models", str(tmp_path / "missing.model"),
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error: cannot read model" in capsys.readouterr().err
