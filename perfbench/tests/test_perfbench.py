"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import stats  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from clozebase.corpus import ClozeInstance, RocStory  # noqa: E402
from clozebase.datagen import build_ending_index, gen_shared_args  # noqa: E402
from clozebase.annotate import heuristic_tag  # noqa: E402
from spans import Span, Tracer, covered  # noqa: E402


# -- generator ---------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    assert synth.cloze_rows(3, "dev", 20) == synth.cloze_rows(3, "dev", 20)
    assert synth.roc_rows(3, 20) == synth.roc_rows(3, 20)
    words_a, vecs_a = synth.table_vectors(3, table_words=5000, dim=8)
    words_b, vecs_b = synth.table_vectors(3, table_words=5000, dim=8)
    assert words_a == words_b
    assert vecs_a.tobytes() == vecs_b.tobytes()


def test_different_seeds_give_different_data():
    assert synth.cloze_rows(3, "dev", 20) != synth.cloze_rows(4, "dev", 20)
    assert synth.roc_rows(3, 20) != synth.roc_rows(4, 20)
    _, vecs_a = synth.table_vectors(3, table_words=5000, dim=8)
    _, vecs_b = synth.table_vectors(4, table_words=5000, dim=8)
    assert vecs_a.tobytes() != vecs_b.tobytes()


def test_splits_of_one_seed_differ():
    assert synth.cloze_rows(3, "dev", 20) != synth.cloze_rows(3, "test", 20)


def test_linear_cell_trains_on_one_set_and_draws_its_held_out_split():
    a = synth.cloze_inputs("linear-cell", 3)
    b = synth.cloze_inputs("linear-cell", 4)
    assert a["dev"] == b["dev"] == synth.cloze_inputs("linear-cell", 0)["dev"]
    assert a["test"] != b["test"]
    # other workloads draw every split from the seed
    assert (synth.cloze_inputs("lstm-epoch", 3)["train"]
            != synth.cloze_inputs("lstm-epoch", 4)["train"])


def test_written_files_parse(tmp_path):
    from clozebase.corpus import parse_cloze_csv, parse_roc_csv
    synth._write_csv(tmp_path / "c.csv", synth.CLOZE_HEADER,
                     synth.cloze_rows(5, "dev", 10))
    synth._write_csv(tmp_path / "r.csv", synth.ROC_HEADER,
                     synth.roc_rows(5, 10))
    cloze = parse_cloze_csv(tmp_path / "c.csv")
    assert len(cloze) == 10 and all(i.gold in (1, 2) for i in cloze)
    assert len(parse_roc_csv(tmp_path / "r.csv")) == 10


def test_word2vec_file_round_trips(tmp_path):
    from clozebase.embeddings import load_embeddings
    words, vectors = synth.table_vectors(2, table_words=5000, dim=4)
    synth.write_word2vec(tmp_path / "v.bin", words, vectors)
    table = load_embeddings(tmp_path / "v.bin", "w2v-bin")
    assert len(table) == 5000
    assert np.array_equal(table.entries[words[7]], vectors[7].astype(np.float64))


# -- tail percentile -----------------------------------------------------------

def test_tail_leaves_at_least_ten_samples_beyond():
    values = list(range(1, 201))          # 200 samples
    t = stats.tail(values)
    assert (t.percentile, t.value, t.beyond, t.samples) == (95.0, 190, 10, 200)


def test_tail_picks_the_highest_qualifying_percentile():
    t = stats.tail(range(1000))
    assert t.percentile == 99.0 and t.beyond == 10 and t.samples == 1000
    t = stats.tail(range(100))
    assert t.percentile == 90.0 and t.beyond == 10
    t = stats.tail(range(20))
    assert t.percentile == 50.0 and t.beyond == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(range(19))


def test_per_second_is_total_items_over_total_time():
    assert stats.per_second(10, [1.0, 3.0]) == 5.0


def test_pass_seconds_adds_the_one_at_a_time_calls():
    assert workloads._pass_seconds([2.0, 4.0], [[500.0, 500.0], [1000.0]]) == 4.0


def test_setup_reports_the_mean_over_both_samples(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    clock = iter([0.0, 1.0, 1.0, 4.0, 10.0, 12.0, 12.0, 14.0])
    monkeypatch.setattr(workloads, "_now", lambda: next(clock))
    loads = []
    setup = workloads.SetupTimer(lambda: loads.append(1) or len(loads))
    assert setup.sample() == 2       # SETUP_MIN_LOADS loads, last kept
    assert setup.sample() == 4
    assert setup.times == [1.0, 3.0, 2.0, 2.0]
    assert setup.mean() == 2.0


# -- span arithmetic -----------------------------------------------------------

def _tracer(spans):
    tr = Tracer("w")
    tr.spans = [Span(name, start, end, parent, "w")
                for name, start, end, parent in spans]
    return tr


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_subtracts_children():
    tr = _tracer([
        ("harness.top", 0.0, 10.0, None),
        ("features.extract", 1.0, 4.0, 0),
        ("linear.solve", 5.0, 9.0, 0),
        ("annotate.tag", 2.0, 3.0, 1),
    ])
    assert tr.self_times() == [3.0, 2.0, 4.0, 1.0]
    assert tr.module_self_times() == {"harness": 3.0, "features": 2.0,
                                      "linear": 4.0, "annotate": 1.0}
    # self times add up to the top-level span
    assert sum(tr.self_times()) == 10.0
    assert tr.top_level_coverage(0.0, 20.0) == 0.5


def test_nested_spans_record_parents():
    tr = Tracer("w")
    with tr.span("a.outer"):
        with tr.span("b.inner"):
            pass
    with tr.span("a.next"):
        pass
    assert [s.parent for s in tr.spans] == [None, 0, None]
    own = tr.self_times()
    assert own[0] == pytest.approx(tr.spans[0].duration - tr.spans[1].duration)


# -- output checks -------------------------------------------------------------

def _stories(n):
    return [RocStory(f"s{i}", "t", (f"Ann met Bob{i}.", "They ate.",
                                    f"He saw a dog{i % 3}.", "It ran.",
                                    f"Ann fed the dog{i % 3} toy{i}."))
            for i in range(n)]


def test_gen_check_passes_real_output_and_catches_perturbed(monkeypatch):
    stories = _stories(12)
    index = build_ending_index(stories, heuristic_tag)
    shared = gen_shared_args(stories, index, k=workloads.GEN_K)
    run = workloads.Run("gen-data", 0, 1.0, Path("."))
    monkeypatch.setattr(workloads, "_reference",
                        lambda r: {"shared": workloads.gen_digest(shared)})
    workloads.check_gen(run, stories, {"shared": shared})
    assert run.checks.failed == 0

    first = shared[0]
    own = first.gold_ending
    # put the story's own ending in the wrong slot
    bad = ClozeInstance(first.id, first.context, own, own, first.gold)
    run = workloads.Run("gen-data", 0, 1.0, Path("."))
    workloads.check_gen(run, stories, {"shared": [bad] + shared[1:]})
    assert run.checks.failed == 2      # pairing and digest
    assert workloads.gen_digest([bad] + shared[1:]) != workloads.gen_digest(shared)


def test_linear_check_catches_weights_outside_tolerance(monkeypatch):
    ref = {"c": 0.05, "test_acc": 0.7, "weight_norm": 3.0, "intercept": 0.1,
           "projections": [1.0, -2.0, 0.5]}
    monkeypatch.setattr(workloads, "_reference", lambda r: ref)

    def failures(out):
        run = workloads.Run("linear-cell", 0, 1.0, Path("."))
        workloads.check_linear(run, out, n_test=100)
        return run.checks.failed

    assert failures(dict(ref)) == 0
    assert failures(dict(ref, weight_norm=3.0 * (1 + 1e-9))) == 0
    assert failures(dict(ref, weight_norm=3.0 * (1 + 1e-4))) == 1
    assert failures(dict(ref, projections=[1.0, -2.0, 0.6])) == 1
    assert failures(dict(ref, c=0.1)) == 1
    assert failures(dict(ref, test_acc=0.71)) == 0     # one instance of 100
    assert failures(dict(ref, test_acc=0.72)) == 1


def test_lstm_check_catches_loss_and_non_finite(monkeypatch):
    monkeypatch.setattr(workloads, "_reference", lambda r: {"dev_loss": 0.7})

    def failures(out):
        run = workloads.Run("lstm-epoch", 0, 1.0, Path("."))
        workloads.check_lstm(run, out)
        return run.checks.failed

    assert failures({"dev_loss": 0.7, "params_finite": True}) == 0
    assert failures({"dev_loss": 0.7 * (1 + 1e-5), "params_finite": True}) == 1
    assert failures({"dev_loss": 0.7, "params_finite": False}) == 1
