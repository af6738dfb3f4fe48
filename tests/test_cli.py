from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from clozebase import cli, harness
from clozebase.cli import main
from clozebase.annotate import (AnnotatedToken, SidecarAnnotations,
                                heuristic_tag, tokenize)
from clozebase.corpus import (ClozeInstance, RocStory, augment_swap,
                              gold_labels, parse_cloze_csv, split_dev,
                              write_cloze_csv, write_roc_csv)
from clozebase.embeddings import EmbeddingFormat, load_embeddings
from clozebase.features import (FeatureConfig, extract, feature_names,
                                save_features)
from clozebase.harness import train_lstm_cell
from clozebase.linear import load_model
from clozebase.neural import (TrainConfig, Variant, init_params,
                              load_checkpoint, save_checkpoint, tensors)

from conftest import (EMBED_DIM, VOCAB, make_instances, make_stories,
                      write_sidecar)


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
            outs.append(Path(out).read_text(encoding="utf-8"))
        assert outs[0] == outs[1]

    def test_duplicate_story_ids_rejected(self, tmp_path, capsys):
        stories = make_stories(3, seed=83)
        stories = [RocStory(id="dup", title=s.title, sentences=s.sentences)
                   for s in stories]
        roc = tmp_path / "dup.csv"
        write_roc_csv(roc, stories)
        code = main(["gen-data", "--roc", str(roc), "--strategy", "random",
                     "--k", "2", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 3: story id 'dup' already used on row 2" in err
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("config", ["all", "sims-only"])
    @pytest.mark.parametrize("swap", [[], ["--swap-augment"]])
    def test_extract_writes_what_per_instance_extract_writes(
            self, config, swap, data_path, glove_path, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["extract", "--data", data_path, "--embeddings", glove_path,
                     "--format", "glove-txt", "--config", config, *swap,
                     "--out", str(out)]) == 0
        instances = parse_cloze_csv(data_path)
        if swap:
            instances = augment_swap(instances)
        table = load_embeddings(glove_path, EmbeddingFormat.GLOVE_TEXT)
        vectors = [extract(inst, table, heuristic_tag, FeatureConfig(config))
                   for inst in instances]
        expected = tmp_path / "expected.csv"
        save_features(expected, vectors, gold_labels(instances))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("config", ["all", "sims-only"])
    def test_extract_from_word2vec_equals_glove_of_its_values(
            self, config, data_path, tmp_path):
        """A word2vec table keeps float32 rows, a GloVe table float64 ones:
        the same float32-exact values give byte-identical feature files."""
        rng = np.random.default_rng(91)
        vectors = {w: rng.standard_normal(EMBED_DIM).astype("<f4")
                   for w in VOCAB}
        w2v, glove = tmp_path / "vectors.bin", tmp_path / "vectors.txt"
        w2v.write_bytes(f"{len(vectors)} {EMBED_DIM}\n".encode() + b"".join(
            w.encode() + b" " + v.tobytes() + b"\n" for w, v in vectors.items()))
        glove.write_text("".join(
            w + " " + " ".join(repr(float(x)) for x in v) + "\n"
            for w, v in vectors.items()), encoding="utf-8")
        outs = []
        for path, fmt in ((w2v, "w2v-bin"), (glove, "glove-txt")):
            outs.append(tmp_path / f"features-{fmt}.csv")
            assert main(["extract", "--data", data_path, "--embeddings",
                         str(path), "--format", fmt, "--config", config,
                         "--swap-augment", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def write_sidecar_for(self, path, instances):
        """Every sentence of `instances`, nouns tagged JJ so that the
        part-of-speech features differ from the heuristic tagger's."""
        blocks = [[AnnotatedToken(t.surface, "JJ" if t.pos.startswith("NN")
                                  else t.pos, t.lemma)
                   for t in heuristic_tag(tokenize(text))]
                  for inst in instances
                  for text in (*inst.context, inst.ending1, inst.ending2)]
        write_sidecar(path, blocks)

    def test_extract_with_sidecar_annotations(self, data_path, glove_path,
                                              tmp_path):
        sidecar = tmp_path / "anno.tsv"
        instances = parse_cloze_csv(data_path)
        self.write_sidecar_for(sidecar, instances)
        outs = {}
        for annotations in (str(sidecar), "heuristic"):
            outs[annotations] = tmp_path / f"{len(outs)}.csv"
            assert main(["extract", "--data", data_path,
                         "--embeddings", glove_path, "--format", "glove-txt",
                         "--config", "all", "--annotations", annotations,
                         "--out", str(outs[annotations])]) == 0
        table = load_embeddings(glove_path, EmbeddingFormat.GLOVE_TEXT)
        annotator = SidecarAnnotations.load(sidecar)
        expected = tmp_path / "expected.csv"
        save_features(expected, [extract(inst, table, annotator,
                                         FeatureConfig.ALL)
                                 for inst in instances],
                      gold_labels(instances))
        assert outs[str(sidecar)].read_bytes() == expected.read_bytes()
        assert (outs[str(sidecar)].read_bytes()
                != outs["heuristic"].read_bytes())

    def test_sentence_missing_from_sidecar_fails(self, data_path, glove_path,
                                                 tmp_path, capsys):
        sidecar = tmp_path / "anno.tsv"
        instances = parse_cloze_csv(data_path)
        last = instances[-1]
        self.write_sidecar_for(sidecar, instances[:-1] + [
            ClozeInstance(last.id, last.context, last.ending1, "Gone.",
                          last.gold)])
        out = tmp_path / "features.csv"
        code = main(["extract", "--data", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--config", "all", "--annotations", str(sidecar),
                     "--out", str(out)])
        assert code == 1
        assert ("no sidecar annotation covers sentence"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_train_linear_reports_the_final_solve(self, data_path, glove_path,
                                                  tmp_path, capsys):
        features = str(tmp_path / "features.csv")
        model_path = str(tmp_path / "model.txt")
        main(["extract", "--data", data_path, "--embeddings", glove_path,
              "--format", "glove-txt", "--config", "sims-only",
              "--swap-augment", "--out", features])
        capsys.readouterr()
        assert main(["train-linear", "--features", features, "--cv-folds", "2",
                     "--c-grid", "1.0", "--model-out", model_path]) == 0
        out = capsys.readouterr().out
        model = load_model(model_path)
        assert model.converged is True
        assert (f"final solve at C=1: {model.iterations} iterations, converged"
                in out)

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

    def test_nan_c_rejected_and_no_model_written(self, data_path, glove_path,
                                                 tmp_path, capsys):
        # before, nan won the CV and the saved model held a C that
        # load_model refuses
        features = str(tmp_path / "features.csv")
        main(["extract", "--data", data_path, "--embeddings", glove_path,
              "--format", "glove-txt", "--config", "endings-only",
              "--out", features])
        capsys.readouterr()
        model = tmp_path / "m.txt"
        code = main(["train-linear", "--features", features, "--c-grid", "nan",
                     "--model-out", str(model)])
        assert code == 1
        assert ("error: C must be a finite positive number, got nan"
                in capsys.readouterr().err)
        assert not model.exists()

    @pytest.mark.parametrize("grid, message", [
        (",", "empty C grid"),
        ("nan", "C must be a finite positive number, got nan"),
        ("0", "C must be a finite positive number, got 0.0"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_c_grid_checked_before_features_are_read(self, grid, message,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        read = []
        monkeypatch.setattr(cli, "load_features",
                            lambda *args: read.append(args))
        model = tmp_path / "m.txt"
        code = main(["train-linear", "--features", str(tmp_path / "f.csv"),
                     "--c-grid", grid, "--model-out", str(model)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read == []
        assert not model.exists()

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fold_count_checked_before_features_are_read(self, folds, tmp_path,
                                                         capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "load_features",
                            lambda *args: read.append(args))
        model = tmp_path / "m.txt"
        code = main(["train-linear", "--features", str(tmp_path / "f.csv"),
                     "--cv-folds", str(folds), "--model-out", str(model)])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: need at least 2 folds, got {folds}\n")
        assert read == []
        assert not model.exists()

    def test_header_only_feature_file_rejected(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("plain_sim_e1,plain_sim_e2\n", encoding="utf-8")
        code = main(["train-linear", "--features", str(features),
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == 1
        assert (f"error: {features}: no feature rows after the header"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("header", [
        ",".join(["story_centroid_a"] + [f"f{i}" for i in range(3)]),
        "e1_sim,e2_sim",
        ",".join(feature_names(FeatureConfig.ALL, 2)[1:]),
    ])
    def test_feature_header_that_is_no_layout(self, tmp_path, capsys, header):
        features = tmp_path / "features.csv"
        row = ",".join("0.5" for _ in header.split(","))
        features.write_text(f"{header}\n{row},1\n{row},2\n", encoding="utf-8")
        code = main(["train-linear", "--features", str(features),
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == 1
        assert (f"error: {features}: feature names are not the layout of any "
                "configuration" in capsys.readouterr().err)

    def test_non_finite_feature_rejected_with_its_row(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("e1_sim,e2_sim\n0.5,0.25,1\n0.5,inf,2\n",
                            encoding="utf-8")
        code = main(["train-linear", "--features", str(features),
                     "--model-out", str(tmp_path / "m.txt")])
        assert code == 1
        assert (f"error: {features}: line 3: non-finite value in column e2_sim"
                in capsys.readouterr().err)


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

    def test_checkpoint_is_the_best_run_of_the_driver(self, data_path,
                                                      glove_path, tmp_path,
                                                      capsys):
        checkpoint = str(tmp_path / "lstm.npz")
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--variant", "raw", "--hidden", "4", "--batch", "8",
                     "--epochs", "2", "--restarts", "2", "--seed", "1",
                     "--model-out", checkpoint]) == 0
        out = capsys.readouterr().out
        split = split_dev(parse_cloze_csv(data_path), ratio=0.9, seed=1)
        table = load_embeddings(glove_path, EmbeddingFormat.GLOVE_TEXT)
        config = TrainConfig(hidden_size=4, batch_size=8, epochs=2,
                             learning_rate=0.001, seed=1,
                             variant=Variant.RAW, restarts=2)
        best, runs = train_lstm_cell(split.dev_train, split.dev_dev, table,
                                     config)
        for restart, run in enumerate(runs):
            assert (f"restart {restart}: best epoch {run.best_epoch}, "
                    f"validation accuracy {run.best_dev_accuracy:.4f}") in out
        saved = tensors(load_checkpoint(checkpoint))
        for name, arr in tensors(best.params).items():
            np.testing.assert_array_equal(saved[name], arr, err_msg=name)

    def test_each_restart_printed_before_the_next_trains(
            self, data_path, glove_path, capsys, monkeypatch):
        printed = []
        train_model = harness.train_model

        def spy(*args):
            printed.append(capsys.readouterr().out)
            return train_model(*args)

        monkeypatch.setattr(harness, "train_model", spy)
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--hidden", "3", "--batch", "8", "--epochs", "1",
                     "--restarts", "2"]) == 0
        assert printed[0] == ""
        assert printed[1].startswith("restart 0: best epoch")
        assert "restart 1:" not in printed[1]
        assert capsys.readouterr().out.startswith("restart 1: best epoch")

    def test_nonpositive_restarts_rejected(self, data_path, glove_path,
                                           capsys):
        for restarts in ("0", "-1"):
            code = main(["train-lstm", "--dev", data_path,
                         "--embeddings", glove_path, "--format", "glove-txt",
                         "--restarts", restarts])
            assert code == 1
            assert ("error: restarts must be positive"
                    in capsys.readouterr().err)

    @staticmethod
    def narrow_table(tmp_path):
        narrow = tmp_path / "narrow.txt"
        narrow.write_text("".join(f"{w} 0.5 -0.5 0.25\n" for w in VOCAB),
                          encoding="utf-8")
        return str(narrow)

    @pytest.mark.parametrize("command", ["eval", "filter"])
    def test_lstm_width_checked_before_any_prediction(self, command, data_path,
                                                      glove_path, tmp_path,
                                                      capsys, monkeypatch):
        # filter binds a linear model that fits any width first: the LSTM's
        # width is refused before that model extracts any instance
        checkpoint = str(tmp_path / "lstm.npz")
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--hidden", "4", "--batch", "8", "--epochs", "1",
                     "--model-out", checkpoint]) == 0
        argv = ["eval", "--model", checkpoint]
        if command == "filter":
            features = str(tmp_path / "features.csv")
            linear = str(tmp_path / "model.txt")
            assert main(["extract", "--data", data_path,
                         "--embeddings", glove_path, "--format", "glove-txt",
                         "--config", "sims-only", "--out", features]) == 0
            assert main(["train-linear", "--features", features,
                         "--cv-folds", "2", "--c-grid", "1.0",
                         "--model-out", linear]) == 0
            argv = ["filter", "--models", linear, checkpoint,
                    "--out", str(tmp_path / "kept.csv")]
        calls = []
        for name in ("extract_matrix", "embed_instance"):
            monkeypatch.setattr(harness, name,
                                lambda *args, name=name: calls.append(name))
        capsys.readouterr()
        assert main([*argv, "--data", data_path, "--format", "glove-txt",
                     "--embeddings", self.narrow_table(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: LSTM model (variant raw) expects {EMBED_DIM}-d "
            "embeddings; the table is 3-d\n")
        assert calls == []

    def test_eval_with_table_of_another_width(self, data_path, glove_path,
                                              tmp_path, capsys):
        narrow = self.narrow_table(tmp_path)
        features = str(tmp_path / "features.csv")
        linear = str(tmp_path / "model.txt")
        assert main(["extract", "--data", data_path, "--embeddings", glove_path,
                     "--format", "glove-txt", "--config", "repr-plus-sim",
                     "--out", features]) == 0
        assert main(["train-linear", "--features", features, "--cv-folds", "2",
                     "--c-grid", "1.0", "--model-out", linear]) == 0
        for command in (["eval", "--model", linear, "--data", data_path],
                        ["filter", "--models", linear, "--data", data_path,
                         "--out", str(tmp_path / "kept.csv")]):
            capsys.readouterr()
            code = main(command + ["--embeddings", narrow,
                                   "--format", "glove-txt"])
            assert code == 1
            err = capsys.readouterr().err
            assert err == (f"error: linear model (config repr-plus-sim) "
                           f"expects {EMBED_DIM}-d embeddings; the table is "
                           "3-d\n")

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
        lines = Path(out).read_text(encoding="utf-8").splitlines()
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

    def test_two_names_give_two_rows(self, tmp_path, glove_path, capsys):
        dev = tmp_path / "dev.csv"
        write_cloze_csv(dev, make_instances(10, seed=87))
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--dev", str(dev), "--test", str(dev),
                     "--embeddings", f"toy={glove_path}:glove-txt",
                     f"again={glove_path}:glove-txt",
                     "--configs", "sims-only", "--cv-folds", "2",
                     "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in rows] == ["embeddings", "toy", "again"]
        assert rows[1].split(",")[1:] == rows[2].split(",")[1:]

    def test_repeated_name_rejected_before_any_table_loads(
            self, tmp_path, glove_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda *args: loaded.append(args))
        dev = tmp_path / "dev.csv"
        write_cloze_csv(dev, make_instances(4, seed=86))
        code = main(["ablate", "--dev", str(dev), "--test", str(dev),
                     "--embeddings", f"toy={glove_path}:glove-txt",
                     f"other={glove_path}:glove-txt",
                     f"toy={glove_path}:glove-txt",
                     "--configs", "endings-only",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "embedding name 'toy' is given twice" in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "o.csv").exists()


    @pytest.mark.parametrize("argv, message", [
        (["--configs", "sims-only", "sims-only"],
         "config 'sims-only' is given twice"),
        (["--embeddings", "=g.txt:glove-txt", "--configs", "sims-only"],
         "embedding spec '=g.txt:glove-txt' has an empty name"),
    ], ids=["repeated-config", "empty-name"])
    def test_bad_grid_rejected_before_any_table_loads(
            self, argv, message, tmp_path, glove_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda *args: loaded.append(args))
        dev = tmp_path / "dev.csv"
        write_cloze_csv(dev, make_instances(4, seed=86))
        code = main(["ablate", "--dev", str(dev), "--test", str(dev),
                     "--embeddings", f"toy={glove_path}:glove-txt", *argv,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "o.csv").exists()


def table_command(command, data, labeled, glove_path, tmp_path):
    """argv for a command that loads an embedding table, reading `data`
    (ablate reads it as --test, with `labeled` as --dev)."""
    table = ["--embeddings", glove_path, "--format", "glove-txt"]
    model, out = str(tmp_path / "model.txt"), str(tmp_path / "out.csv")
    return {
        "extract": ["extract", "--data", data, *table, "--out", out],
        "eval": ["eval", "--model", model, "--data", data, *table],
        "filter": ["filter", "--data", data, "--models", model, *table,
                   "--out", out],
        "ablate": ["ablate", "--dev", labeled, "--test", data, "--embeddings",
                   f"toy={glove_path}:glove-txt", "--configs", "sims-only",
                   "--out", out],
        "train-lstm": ["train-lstm", "--dev", data, *table],
    }[command]


class TestInputsCheckedBeforeTables:
    """Every command reads its CSVs and checks their labels, then reads its
    annotations, before it loads an embedding table; gen-data checks its
    arguments before it builds an ending index."""

    @pytest.fixture()
    def loaded(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda *args: calls.append(args))
        return calls

    @pytest.mark.parametrize("command",
                             ["extract", "eval", "filter", "ablate",
                              "train-lstm"])
    def test_unlabeled_data(self, command, loaded, data_path, glove_path,
                            tmp_path, capsys):
        unlabeled = tmp_path / "unlabeled.csv"
        write_cloze_csv(unlabeled, make_instances(4, seed=88, labeled=False))
        argv = table_command(command, str(unlabeled), data_path, glove_path,
                             tmp_path)
        assert main(argv) == 1
        assert "is unlabeled" in capsys.readouterr().err
        assert loaded == []

    @pytest.mark.parametrize("command", ["extract", "eval", "filter", "ablate"])
    def test_missing_sidecar(self, command, loaded, data_path, glove_path,
                             tmp_path, capsys):
        sidecar = tmp_path / "missing.sidecar"
        argv = table_command(command, data_path, data_path, glove_path,
                             tmp_path)
        assert main([*argv, "--annotations", str(sidecar)]) == 1
        assert str(sidecar) in capsys.readouterr().err
        assert loaded == []

    @pytest.mark.parametrize("command", ["eval", "filter"])
    @pytest.mark.parametrize("model, message", [
        ("missing", "error: cannot read model"),
        ("corrupt checkpoint", "not an LSTM checkpoint")])
    def test_bad_model(self, command, model, message, loaded, data_path,
                       glove_path, tmp_path, capsys):
        argv = table_command(command, data_path, data_path, glove_path,
                             tmp_path)
        if model == "corrupt checkpoint":
            path = tmp_path / "model.txt"
            save_checkpoint(path, init_params(0, EMBED_DIM, 3, Variant.RAW))
            content = path.read_bytes()
            path.write_bytes(content[:len(content) // 2])
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert loaded == []

    # 5 instances: ratio 0.9 cuts at 5, ratio 0.05 at 0
    @pytest.mark.parametrize("command, argument, message", [
        ("ablate", ["--cv-folds", "1"], "need at least 2 folds, got 1"),
        ("train-lstm", ["--split-ratio", "0.9"],
         "train and dev sets must be nonempty"),
        ("train-lstm", ["--split-ratio", "0.05"],
         "train and dev sets must be nonempty"),
    ], ids=["one-fold", "empty-validation", "empty-training"])
    def test_bad_numeric_argument(self, command, argument, message, loaded,
                                  glove_path, tmp_path, capsys):
        data = str(tmp_path / "five.csv")
        write_cloze_csv(data, make_instances(5, seed=89))
        argv = table_command(command, data, data, glove_path, tmp_path)
        assert main([*argv, *argument]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loaded == []

    @pytest.mark.parametrize("command, message", [
        ("extract", "nothing to save"),
        ("eval", "nothing to score"),
        ("ablate", "nothing to score"),
    ])
    def test_empty_data(self, command, message, loaded, data_path, glove_path,
                        tmp_path, capsys):
        # eval reads a valid model, so only the empty CSV can refuse it
        save_checkpoint(tmp_path / "model.txt",
                        init_params(0, EMBED_DIM, 3, Variant.RAW))
        empty = tmp_path / "empty.csv"
        write_cloze_csv(empty, [])
        argv = table_command(command, str(empty), data_path, glove_path,
                             tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loaded == []
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("dev_size, message", [
        (0, "cannot fit a linear model on an empty training set"),
        (2, "4 examples cannot fill 5 folds"),
    ], ids=["empty-dev", "dev-below-folds"])
    def test_dev_too_small_for_ablation(self, dev_size, message, loaded,
                                        data_path, glove_path, tmp_path,
                                        capsys):
        dev = str(tmp_path / "dev.csv")
        write_cloze_csv(dev, make_instances(dev_size, seed=90))
        argv = table_command("ablate", data_path, dev, glove_path, tmp_path)
        assert main([*argv, "--cv-folds", "5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loaded == []

    @pytest.mark.parametrize("strategy, argument, stories, message", [
        ("shared", ["--k", "0"], 12, "k must be >= 1, got 0"),
        ("coherent", ["--k", "5", "--pool", "3"], 12,
         "pool (3) must be at least k (5)"),
        ("shared", [], 1, "need at least 2 stories to pick wrong endings"),
    ], ids=["k-zero", "pool-below-k", "one-story"])
    def test_bad_generation_argument(self, strategy, argument, stories,
                                     message, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_ending_index",
                            lambda *args: built.append(args))
        roc, out = tmp_path / "stories.csv", tmp_path / "out.csv"
        write_roc_csv(roc, make_stories(stories, seed=80))
        assert main(["gen-data", "--roc", str(roc), "--strategy", strategy,
                     *argument, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []
        assert not out.exists()


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

    @staticmethod
    def eval_error(model, data_path, glove_path, capsys):
        capsys.readouterr()
        code = main(["eval", "--model", str(model), "--data", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    @pytest.fixture()
    def checkpoint(self, data_path, glove_path, tmp_path):
        path = tmp_path / "lstm.npz"
        assert main(["train-lstm", "--dev", data_path,
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--hidden", "3", "--batch", "8", "--epochs", "1",
                     "--restarts", "1", "--model-out", str(path)]) == 0
        return path

    @staticmethod
    def rewrite_meta(path, **changes):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta.update(changes)
        meta = {k: v for k, v in meta.items() if v is not None}
        arrays["__meta__"] = np.asarray(json.dumps(meta))
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

    def test_truncated_checkpoint(self, checkpoint, data_path, glove_path,
                                  capsys):
        content = checkpoint.read_bytes()
        checkpoint.write_bytes(content[:len(content) // 2])
        err = self.eval_error(checkpoint, data_path, glove_path, capsys)
        assert err.startswith(f"error: {checkpoint}: not an LSTM checkpoint")
        assert "nor is it a linear model file" in err

    def test_text_file_as_model(self, data_path, glove_path, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("some notes\nabout a model\n")
        err = self.eval_error(path, data_path, glove_path, capsys)
        assert err.startswith(f"error: {path}: not an LSTM checkpoint")
        assert "nor is it a linear model file" in err

    def test_checkpoint_without_variant(self, checkpoint, data_path,
                                        glove_path, capsys):
        self.rewrite_meta(checkpoint, variant=None)
        err = self.eval_error(checkpoint, data_path, glove_path, capsys)
        assert err.startswith(f"error: {checkpoint}: bad checkpoint metadata "
                              "(KeyError: 'variant')")

    def test_checkpoint_with_unknown_variant(self, checkpoint, data_path,
                                             glove_path, capsys):
        self.rewrite_meta(checkpoint, variant="zzz")
        err = self.eval_error(checkpoint, data_path, glove_path, capsys)
        assert err.startswith(f"error: {checkpoint}: bad checkpoint metadata "
                              "(ValueError: 'zzz' is not a valid Variant)")

    def test_unreadable_model_errors(self, data_path, glove_path, tmp_path,
                                     capsys):
        code = main(["filter", "--data", data_path,
                     "--models", str(tmp_path / "missing.model"),
                     "--embeddings", glove_path, "--format", "glove-txt",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error: cannot read model" in capsys.readouterr().err
