from __future__ import annotations

import random

import pytest

from clozebase.corpus import (ENDING1, ENDING2, ClozeInstance, RocStory,
                              augment_swap, parse_cloze_csv, parse_roc_csv,
                              split_dev, swap_endings, write_cloze_csv,
                              write_roc_csv)
from clozebase.errors import ParseError

from conftest import make_instances, make_stories


def test_instance_rejects_bad_gold():
    with pytest.raises(ValueError, match="gold"):
        ClozeInstance(id="x", context=("a", "b", "c", "d"),
                      ending1="e", ending2="f", gold=3)


def test_instance_rejects_short_context():
    with pytest.raises(ValueError, match="4 context"):
        ClozeInstance(id="x", context=("a", "b", "c"),
                      ending1="e", ending2="f", gold=1)


def test_gold_ending_property():
    inst = ClozeInstance(id="x", context=("a", "b", "c", "d"),
                         ending1="good", ending2="bad", gold=1)
    assert inst.gold_ending == "good"
    with pytest.raises(ValueError, match="unlabeled"):
        ClozeInstance(id="x", context=("a", "b", "c", "d"),
                      ending1="e", ending2="f").gold_ending


def test_story_rejects_four_sentences():
    with pytest.raises(ValueError, match="^story 's': expected 5 sentences, "
                                         "got 4$"):
        RocStory(id="s", title="t", sentences=("1", "2", "3", "4"))


def test_story_context_and_ending():
    story = RocStory(id="s", title="t", sentences=("1", "2", "3", "4", "5"))
    assert story.context == ("1", "2", "3", "4")
    assert story.ending == "5"


class TestClozeCsv:
    def test_labeled_round_trip(self, tmp_path):
        instances = make_instances(10, seed=1)
        path = tmp_path / "cloze.csv"
        write_cloze_csv(path, instances)
        assert parse_cloze_csv(path) == instances

    def test_unlabeled_round_trip(self, tmp_path):
        instances = make_instances(5, seed=2, labeled=False)
        path = tmp_path / "cloze.csv"
        write_cloze_csv(path, instances)
        parsed = parse_cloze_csv(path)
        assert parsed == instances
        assert all(inst.gold is None for inst in parsed)

    def test_commas_and_quotes_survive(self, tmp_path):
        inst = ClozeInstance(
            id="tricky",
            context=('He said, "hi".', "a, b, and c", "plain", "x"),
            ending1='She replied, "bye".', ending2="nothing", gold=2)
        path = tmp_path / "cloze.csv"
        write_cloze_csv(path, [inst])
        assert parse_cloze_csv(path) == [inst]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "cloze.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            parse_cloze_csv(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "cloze.csv"
        path.write_text("id,s1,s2,s3,s4,e1,e2,label\na,b,c\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_cloze_csv(path)

    def test_bad_gold_value_names_row(self, tmp_path):
        path = tmp_path / "cloze.csv"
        path.write_text("id,s1,s2,s3,s4,e1,e2,label\nx,a,b,c,d,e,f,7\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_cloze_csv(path)

    def test_mixed_labels_rejected_on_write(self, tmp_path):
        labeled = make_instances(2, seed=3)
        unlabeled = make_instances(2, seed=4, labeled=False)
        with pytest.raises(ValueError, match="mix"):
            write_cloze_csv(tmp_path / "x.csv", labeled + unlabeled)


class TestRocCsv:
    def test_round_trip(self, tmp_path):
        stories = make_stories(8, seed=5)
        path = tmp_path / "roc.csv"
        write_roc_csv(path, stories)
        assert parse_roc_csv(path) == stories

    def test_wrong_width_names_row(self, tmp_path):
        path = tmp_path / "roc.csv"
        path.write_text("id,title,s1,s2,s3,s4,s5\na,b,c\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_roc_csv(path)

    def test_duplicate_id_names_both_rows(self, tmp_path):
        stories = make_stories(3, seed=6)
        stories[2] = RocStory(id=stories[0].id, title=stories[2].title,
                              sentences=stories[2].sentences)
        path = tmp_path / "roc.csv"
        write_roc_csv(path, stories)
        with pytest.raises(ParseError,
                           match="row 4: story id 'story-000' already used "
                                 "on row 2"):
            parse_roc_csv(path)


CLOZE_HEADER = "id,s1,s2,s3,s4,e1,e2"
ROC_HEADER = "id,title,s1,s2,s3,s4,s5"


@pytest.mark.parametrize("parse, text, message", [
    (parse_cloze_csv, "", "empty file, header row required"),
    (parse_roc_csv, "", "empty file, header row required"),
    (parse_cloze_csv, "id,s1,s2\n",
     "row 1: expected 7 or 8 columns in header, got 3"),
    (parse_roc_csv, CLOZE_HEADER + ",label\n",
     "row 1: expected 7 columns in header, got 8"),
    (parse_cloze_csv, CLOZE_HEADER + ",label\nx,a,b,c,d,e,f\n",
     "row 2: expected 8 columns, got 7"),
    (parse_cloze_csv, CLOZE_HEADER + "\nx,a,b,c,d,e,f\ny,a,b,c,d,e,f,1\n",
     "row 3: expected 7 columns, got 8"),
    (parse_roc_csv, ROC_HEADER + "\na,t,1,2,3,4,5\nb,t,1\n",
     "row 3: expected 7 columns, got 3"),
    (parse_cloze_csv, CLOZE_HEADER + ",label\nx,a,b,c,d,e,f,1\ny,a,b,c,d,e,f,01\n",
     "row 3: gold indicator must be 1 or 2, got '01'"),
    (parse_roc_csv, ROC_HEADER + "\na,t,1,2,3,4,5\nb,t,1,2,3,4,5\na,u,1,2,3,4,5\n",
     "row 4: story id 'a' already used on row 2"),
])
def test_parse_error_text(tmp_path, parse, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse(path)
    assert str(err.value) == f"{path}: {message}"


class TestSplitDev:
    def test_sizes_round_half_away_from_zero(self):
        instances = make_instances(1871, seed=6)
        split = split_dev(instances, ratio=0.9, seed=0)
        # 0.9 * 1871 = 1683.9 -> 1684
        assert len(split.dev_train) == 1684
        assert len(split.dev_dev) == 187

    @pytest.mark.parametrize("n,ratio,expected", [
        (10, 0.9, 9), (15, 0.9, 14),    # 13.5 rounds up
        (10, 0.25, 3),                  # 2.5 rounds up
        (4, 0.5, 2),
    ])
    def test_rounding_cases(self, n, ratio, expected):
        split = split_dev(make_instances(n, seed=8), ratio=ratio, seed=1)
        assert len(split.dev_train) == expected

    def test_partition(self):
        instances = make_instances(30, seed=9)
        split = split_dev(instances, ratio=0.9, seed=4)
        combined = sorted(split.dev_train + split.dev_dev, key=lambda i: i.id)
        assert combined == sorted(instances, key=lambda i: i.id)

    def test_matches_seeded_shuffle(self):
        instances = make_instances(20, seed=10)
        split = split_dev(instances, ratio=0.8, seed=42)
        expected = list(instances)
        random.Random(42).shuffle(expected)
        assert list(split.dev_train) == expected[:16]
        assert list(split.dev_dev) == expected[16:]

    def test_deterministic(self):
        instances = make_instances(25, seed=11)
        a = split_dev(instances, ratio=0.9, seed=7)
        b = split_dev(instances, ratio=0.9, seed=7)
        assert a == b

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            split_dev(make_instances(5), ratio=1.0, seed=0)


class TestSwap:
    def test_swap_exchanges_and_flips(self):
        inst = make_instances(1, seed=12)[0]
        swapped = swap_endings(inst)
        assert swapped.id == inst.id + "-swap"
        assert swapped.ending1 == inst.ending2
        assert swapped.ending2 == inst.ending1
        assert swapped.context == inst.context
        assert {swapped.gold, inst.gold} == {ENDING1, ENDING2}

    def test_swap_is_involution_up_to_id(self):
        inst = make_instances(1, seed=13)[0]
        twice = swap_endings(swap_endings(inst))
        assert twice.ending1 == inst.ending1
        assert twice.gold == inst.gold
        assert twice.id == inst.id + "-swap-swap"

    def test_swap_requires_label(self):
        inst = make_instances(1, seed=14, labeled=False)[0]
        with pytest.raises(ValueError, match="unlabeled"):
            swap_endings(inst)

    def test_augment_doubles_and_interleaves(self):
        instances = make_instances(6, seed=15)
        augmented = augment_swap(instances)
        assert len(augmented) == 12
        assert augmented[0::2] == instances
        assert all(a.id == i.id + "-swap"
                   for i, a in zip(instances, augmented[1::2]))
        # label balance is exact after augmentation
        assert sum(1 for a in augmented if a.gold == 1) == 6
