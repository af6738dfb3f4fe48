from __future__ import annotations

import random

import numpy as np
import pytest

from clozebase.annotate import (CoarseClass, SidecarAnnotations, coarse_class,
                                heuristic_tag, tokenize)
from clozebase.corpus import ENDING1, ENDING2, ClozeInstance, RocStory
from clozebase.datagen import (build_ending_index, consensus_filter,
                               gen_random, gen_random_coherent,
                               gen_shared_args)

from conftest import make_stories, write_sidecar


def oracle_lemmas(text):
    """Independent re-derivation of the noun/pronoun lemma set of a sentence."""
    out = set()
    for tok in heuristic_tag(tokenize(text)):
        if coarse_class(tok.pos) in (CoarseClass.NOUN, CoarseClass.PRONOUN):
            out.add(tok.lemma.lower())
    return out


def oracle_ranking(story, stories):
    """Brute-force overlap ranking: (-overlap, story id) over all other stories."""
    context = set()
    for sentence in story.context:
        context |= oracle_lemmas(sentence)
    scored = []
    for other in stories:
        if other.id == story.id:
            continue
        overlap = len(context & oracle_lemmas(other.ending))
        scored.append((-overlap, other.id, other.ending))
    scored.sort()
    return scored


def ending_lemmas(index, i):
    """The lemmas whose posting list holds position i."""
    return {lemma for lemma, positions in index.by_lemma.items()
            if i in positions.tolist()}


@pytest.fixture(scope="module")
def index(stories50):
    return build_ending_index(stories50, heuristic_tag)


class TestEndingIndex:
    def test_noun_filter(self):
        stories = [
            RocStory(id="a", title="", sentences=("s", "s", "s", "s", "The dog barked.")),
            RocStory(id="b", title="", sentences=("s", "s", "s", "s", "go quickly now.")),
        ]
        index = build_ending_index(stories, heuristic_tag)
        assert index.position == {"a": 0, "b": 1}
        assert index.endings == ("The dog barked.", "go quickly now.")
        assert {lemma: v.tolist() for lemma, v in index.by_lemma.items()} == {
            "dog": [0]}
        assert ending_lemmas(index, 0) == {"dog"}
        assert ending_lemmas(index, 1) == set()

    def test_shared_lemma_retrieves_both(self):
        stories = [
            RocStory(id="a", title="", sentences=("s", "s", "s", "s", "The dog ran.")),
            RocStory(id="b", title="", sentences=("s", "s", "s", "s", "A dog slept.")),
        ]
        index = build_ending_index(stories, heuristic_tag)
        assert {stories[i].id for i in index.by_lemma["dog"]} == {"a", "b"}

    def test_duplicate_id_rejected(self):
        stories = make_stories(3)
        stories.append(RocStory(id="story-001", title="",
                                sentences=("s", "s", "s", "s", "A cat sat.")))
        with pytest.raises(ValueError, match="story-001"):
            build_ending_index(stories, heuristic_tag)
        with pytest.raises(ValueError, match="story-001"):
            gen_random(stories, k=1, seed=0)

    def test_lemmas_match_oracle(self, stories50, index):
        assert index.endings == tuple(story.ending for story in stories50)
        for i, story in enumerate(stories50):
            assert index.position[story.id] == i
            assert ending_lemmas(index, i) == oracle_lemmas(story.ending)
            assert index.context_lemmas[story.id] == set().union(
                *(oracle_lemmas(s) for s in story.context))

    def test_by_lemma_lengths_are_brute_force_counts(self, stories50, index):
        # perfbench's posting stats read exactly these lengths
        counts = {}
        for story in stories50:
            for lemma in oracle_lemmas(story.ending):
                counts[lemma] = counts.get(lemma, 0) + 1
        assert {lemma: len(v) for lemma, v in index.by_lemma.items()} == counts
        for lemma, positions in index.by_lemma.items():
            assert positions.dtype == np.int64
            assert all(lemma in oracle_lemmas(stories50[i].ending)
                       for i in positions)

    def test_sidecar_annotator_builds_the_same_index(self, stories50, index, tmp_path):
        # the heuristic's tags written out and read back as a sidecar file:
        # an annotator with no memo and freshly built tokens
        blocks = [heuristic_tag(tokenize(sentence))
                  for story in stories50 for sentence in story.sentences]
        path = tmp_path / "anno.tsv"
        write_sidecar(path, blocks)
        sidecar = SidecarAnnotations.load(path)
        assert all(sidecar([tok.surface for tok in block]) == block
                   for block in blocks)
        from_sidecar = build_ending_index(stories50, sidecar)
        assert from_sidecar == index
        assert list(from_sidecar.by_lemma) == list(index.by_lemma)
        for lemma, positions in index.by_lemma.items():
            assert from_sidecar.by_lemma[lemma].tolist() == positions.tolist()
        assert from_sidecar.id_rank.tolist() == index.id_rank.tolist()


def assert_well_formed(instances, stories, k):
    by_id = {s.id: s for s in stories}
    per_story = {}
    for inst in instances:
        story_id = inst.id.rsplit("-", 2)[0]
        per_story[story_id] = per_story.get(story_id, 0) + 1
        story = by_id[story_id]
        assert inst.context == story.context
        assert inst.gold_ending == story.ending
        bad = inst.ending2 if inst.gold == 1 else inst.ending1
        assert bad != story.ending          # never paired with its own ending
    assert all(count == k for count in per_story.values())
    assert len(per_story) == len(stories)


class TestArgumentChecks:
    """Every generator checks k, then pool, then corpus size, then
    duplicate ids, before it draws any ending."""

    @pytest.mark.parametrize("stories, k, pool, match", [
        (make_stories(1) * 2, 0, -1, "k must be"),
        (make_stories(1) * 2, 2, 1, "pool"),
        (make_stories(1), 1, 1, "2 stories"),
        (make_stories(1) * 2, 1, 1, "duplicate story id"),
    ])
    def test_order(self, stories, k, pool, match):
        index = build_ending_index(make_stories(2), heuristic_tag)
        with pytest.raises(ValueError, match=match):
            gen_random_coherent(stories, index, pool=pool, k=k, seed=0)
        if match != "pool":
            with pytest.raises(ValueError, match=match):
                gen_shared_args(stories, index, k=k)
            with pytest.raises(ValueError, match=match):
                gen_random(stories, k=k, seed=0)


    def test_story_outside_the_index_is_named(self, stories50):
        index = build_ending_index(stories50[:10], heuristic_tag)
        stranger = stories50[10].id
        with pytest.raises(ValueError, match=f"story '{stranger}' is not in "
                           "the ending index"):
            gen_shared_args(stories50[:11], index, k=2)
        with pytest.raises(ValueError, match=f"story '{stranger}' is not in "
                           "the ending index"):
            gen_random_coherent(stories50[:11], index, pool=3, k=2, seed=0)

    def test_subset_of_the_index_stories(self, stories50, index):
        subset = stories50[5:12]
        ids = {story.id for story in subset}

        def of_subset(instances):
            return [inst for inst in instances
                    if inst.id.rsplit("-", 2)[0] in ids]
        assert gen_shared_args(subset, index, k=3) == of_subset(
            gen_shared_args(stories50, index, k=3))
        assert gen_random_coherent(subset, index, pool=6, k=3, seed=1) == (
            of_subset(gen_random_coherent(stories50, index, pool=6, k=3,
                                          seed=1)))


class TestGenRandom:
    def test_counts_and_exclusion(self, stories50):
        instances = gen_random(stories50, k=10, seed=3)
        assert len(instances) == 500
        assert_well_formed(instances, stories50, k=10)

    def test_eleven_stories_k10(self):
        stories = make_stories(11, seed=20)
        instances = gen_random(stories, k=10, seed=0)
        assert len(instances) == 110
        assert_well_formed(instances, stories, k=10)

    def test_distinct_sources_when_possible(self, stories50):
        for inst_group in range(0, 15, 3):
            instances = gen_random(stories50, k=3, seed=inst_group)
            for i in range(0, len(instances), 3):
                bads = {inst.ending2 if inst.gold == 1 else inst.ending1
                        for inst in instances[i:i + 3]}
                assert len(bads) == 3

    def test_deterministic(self, stories50):
        assert gen_random(stories50, k=5, seed=9) == gen_random(stories50, k=5, seed=9)

    def test_seed_changes_output(self, stories50):
        assert gen_random(stories50, k=5, seed=1) != gen_random(stories50, k=5, seed=2)

    def test_both_positions_occur(self, stories50):
        golds = {inst.gold for inst in gen_random(stories50, k=10, seed=4)}
        assert golds == {1, 2}

    def test_too_few_stories(self):
        with pytest.raises(ValueError, match="2 stories"):
            gen_random(make_stories(1), k=1, seed=0)

    def test_bad_k(self, stories50):
        with pytest.raises(ValueError, match="k"):
            gen_random(stories50, k=0, seed=0)


class TestGenSharedArgs:
    def test_top_k_matches_overlap_oracle(self, stories50, index):
        k = 10
        instances = gen_shared_args(stories50, index, k=k)
        assert_well_formed(instances, stories50, k=k)
        for story in stories50:
            expected = [ending for _, _, ending in oracle_ranking(story, stories50)[:k]]
            got = []
            for inst in instances:
                if inst.id.startswith(story.id + "-shared-"):
                    got.append(inst.ending2 if inst.gold == 1 else inst.ending1)
            assert got == expected

    def test_zero_overlap_falls_back_to_id_order(self):
        stories = [
            RocStory(id=f"s{i}", title="",
                     sentences=(f"w{i}a.", f"w{i}b.", f"w{i}c.", f"w{i}d.",
                                f"unique{i}."))
            for i in range(5)
        ]
        index = build_ending_index(stories, heuristic_tag)
        instances = gen_shared_args(stories, index, k=2)
        for story in stories:
            bads = [inst.ending2 if inst.gold == 1 else inst.ending1
                    for inst in instances
                    if inst.id.startswith(story.id + "-shared-")]
            expected = [s.ending for s in stories if s.id != story.id][:2]
            assert bads == expected

    def test_k_beyond_corpus_uses_all(self):
        stories = make_stories(4, seed=21)
        index = build_ending_index(stories, heuristic_tag)
        instances = gen_shared_args(stories, index, k=50)
        assert len(instances) == 4 * 3

    def test_deterministic(self, stories50, index):
        assert gen_shared_args(stories50, index, k=4) == gen_shared_args(
            stories50, index, k=4)


class TestGenRandomCoherent:
    def test_samples_stay_inside_pool(self, stories50, index):
        pool, k = 12, 5
        instances = gen_random_coherent(stories50, index, pool=pool, k=k, seed=2)
        assert_well_formed(instances, stories50, k=k)
        for story in stories50:
            allowed = {ending for _, _, ending
                       in oracle_ranking(story, stories50)[:pool]}
            for inst in instances:
                if inst.id.startswith(story.id + "-coherent-"):
                    bad = inst.ending2 if inst.gold == 1 else inst.ending1
                    assert bad in allowed

    def test_pool_equals_k_degenerates_to_shared_args(self, stories50, index):
        k = 6
        coherent = gen_random_coherent(stories50, index, pool=k, k=k, seed=5)
        shared = gen_shared_args(stories50, index, k=k)

        def bads(instances, story_id, tag):
            return {inst.ending2 if inst.gold == 1 else inst.ending1
                    for inst in instances
                    if inst.id.startswith(f"{story_id}-{tag}-")}

        for story in stories50:
            assert bads(coherent, story.id, "coherent") == bads(
                shared, story.id, "shared")

    def test_pool_smaller_than_k_rejected(self, stories50, index):
        with pytest.raises(ValueError, match="pool"):
            gen_random_coherent(stories50, index, pool=3, k=5, seed=0)

    def test_deterministic(self, stories50, index):
        a = gen_random_coherent(stories50, index, pool=20, k=5, seed=8)
        b = gen_random_coherent(stories50, index, pool=20, k=5, seed=8)
        assert a == b


# The generators as they were when each ranking sorted all N - 1 endings and
# gen_random listed them, kept verbatim as oracles for the numpy ranking and
# the index-only sampling. They share no code with the generators: the
# placement below is the package's former `_place_endings`, copied verbatim,
# and the ranking reads story ids from the story list.

def _place_endings(story, wrong, j, strategy, rng):
    """Assemble one labeled instance, coin-flipping which slot is correct."""
    correct_first = rng.random() < 0.5
    if correct_first:
        ending1, ending2, gold = story.ending, wrong, ENDING1
    else:
        ending1, ending2, gold = wrong, story.ending, ENDING2
    return ClozeInstance(
        id=f"{story.id}-{strategy}-{j}",
        context=story.context,
        ending1=ending1,
        ending2=ending2,
        gold=gold,
    )


def oracle_gen_random(stories, k, seed):
    """k instances per story with wrong endings sampled uniformly from other stories."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to sample wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"random:{seed}:{story.id}")
        others = [s.ending for s in stories if s.id != story.id]
        if k <= len(others):
            chosen = rng.sample(others, k)
        else:
            chosen = list(others)
            while len(chosen) < k:
                chosen.append(rng.choice(others))
        for j, wrong in enumerate(chosen, start=1):
            instances.append(_place_endings(story, wrong, j, "random", rng))
    return instances


def oracle_ranked_candidates(story, stories, index):
    """All other stories, best ending lemma overlap first, ties by story id."""
    ctx = index.context_lemmas[story.id]
    scores: dict[str, int] = {}
    for lemma in ctx:
        for other in (stories[i] for i in index.by_lemma.get(lemma, ())):
            if other.id != story.id:
                scores[other.id] = scores.get(other.id, 0) + 1
    ranked = [s for s in stories if s.id != story.id]
    ranked.sort(key=lambda s: (-scores.get(s.id, 0), s.id))
    return ranked


def oracle_gen_shared_args(stories, index, k):
    """k instances per story using the top-overlap endings (deterministic choice)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"shared:{story.id}")
        ranked = oracle_ranked_candidates(story, stories, index)
        # When k exceeds the corpus, every available ending is used once.
        chosen = [e.ending for e in ranked[:k]]
        for j, wrong in enumerate(chosen, start=1):
            instances.append(_place_endings(story, wrong, j, "shared", rng))
    return instances


def oracle_gen_random_coherent(stories, index, pool, k, seed):
    """k instances per story sampled from each story's `pool` best-overlap endings."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if pool < k:
        raise ValueError(f"pool ({pool}) must be at least k ({k})")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"coherent:{seed}:{story.id}")
        ranked = oracle_ranked_candidates(story, stories, index)[:pool]
        chosen = [e.ending for e in rng.sample(ranked, min(k, len(ranked)))]
        for j, wrong in enumerate(chosen, start=1):
            instances.append(_place_endings(story, wrong, j, "coherent", rng))
    return instances


ARGUMENT_WORDS = ("she", "he", "they", "dog", "cat", "beach")
FILLER_WORDS = ("walked", "smiled", "quickly", "slowly", "the", "and")


def tied_corpus(n, seed):
    """n stories over six argument lemmas, so overlaps tie often.

    Ids are drawn out of order and compare as strings ("t10" < "t7"), so
    the id tie-break differs from list order; about one context in four
    holds no argument lemma, and endings repeat across stories.
    """
    rng = random.Random(f"tied:{seed}")

    def sentence(bare):
        words = rng.choices(FILLER_WORDS, k=rng.randint(1, 3))
        if not bare:
            words += rng.sample(ARGUMENT_WORDS, rng.randint(1, 2))
        rng.shuffle(words)
        return " ".join(words) + "."

    stories = []
    for number in rng.sample(range(10 * n), n):
        bare = rng.random() < 0.25
        context = tuple(sentence(bare) for _ in range(4))
        stories.append(RocStory(id=f"t{number}", title="",
                                sentences=context + (sentence(False),)))
    return stories


CORPORA = [(2, 0), (2, 1), (3, 2), (7, 3), (25, 4), (60, 5)]


class TestAgainstTheSortingGenerators:
    def test_corpora_have_ties_and_bare_contexts(self):
        stories = tied_corpus(60, 5)
        index = build_ending_index(stories, heuristic_tag)
        assert sum(not index.context_lemmas[s.id] for s in stories) >= 5
        scores = [-score for score, _, _ in oracle_ranking(stories[0], stories)]
        assert max(scores) > 0
        assert len(set(scores)) < len(scores) // 5

    @pytest.mark.parametrize("n, seed", CORPORA)
    def test_shared_args(self, n, seed):
        stories = tied_corpus(n, seed)
        index = build_ending_index(stories, heuristic_tag)
        for k in sorted({1, 3, n - 1, n, n + 4}):
            assert (gen_shared_args(stories, index, k)
                    == oracle_gen_shared_args(stories, index, k))

    @pytest.mark.parametrize("n, seed", CORPORA)
    def test_random_coherent(self, n, seed):
        stories = tied_corpus(n, seed)
        index = build_ending_index(stories, heuristic_tag)
        for pool, k in ((1, 1), (3, 2), (n - 1, 1), (n, 2), (n + 5, n + 5),
                        (2 * n, 3)):
            assert (gen_random_coherent(stories, index, pool, k, seed)
                    == oracle_gen_random_coherent(stories, index, pool, k, seed))

    @pytest.mark.parametrize("n, seed", CORPORA)
    def test_random(self, n, seed):
        stories = tied_corpus(n, seed)
        for k in sorted({1, 3, n - 1, n, 2 * n + 3}):
            assert gen_random(stories, k, seed) == oracle_gen_random(stories, k, seed)

    def test_story_fixture(self, stories50, index):
        assert (gen_shared_args(stories50, index, 10)
                == oracle_gen_shared_args(stories50, index, 10))
        assert (gen_random_coherent(stories50, index, 20, 10, 3)
                == oracle_gen_random_coherent(stories50, index, 20, 10, 3))
        assert gen_random(stories50, 10, 3) == oracle_gen_random(stories50, 10, 3)


@pytest.mark.parametrize("seed", range(6))
def test_sampling_a_range_picks_what_sampling_a_list_does(seed):
    """gen_random and gen_random_coherent sample positions: random.sample
    and random.choice depend only on the population's length."""
    for n, k in ((1, 1), (5, 2), (10, 10), (50, 40), (1499, 10), (1499, 500)):
        population = [f"ending {i}" for i in range(n)]
        by_index = random.Random(f"sample:{seed}")
        by_value = random.Random(f"sample:{seed}")
        assert ([population[i] for i in by_index.sample(range(n), k)]
                == by_value.sample(population, k))
        assert ([population[by_index.choice(range(n))] for _ in range(7)]
                == [by_value.choice(population) for _ in range(7)])


def labeling(label_of):
    """A predictor that labels each instance with `label_of(instance)`."""
    return lambda instances: [label_of(inst) for inst in instances]


def oracle_filter(instances, predictors):
    """Every predictor asked about every instance, one at a time."""
    return [inst for inst in instances
            if all(predict([inst])[0] == inst.gold for predict in predictors)]


class TestConsensusFilter:
    def test_perfect_predictor_keeps_all(self, stories50):
        instances = gen_random(stories50, k=2, seed=1)
        kept = consensus_filter(instances, [labeling(lambda i: i.gold)])
        assert kept == instances

    def test_always_wrong_keeps_none(self, stories50):
        instances = gen_random(stories50, k=2, seed=1)
        kept = consensus_filter(instances, [labeling(lambda i: 3 - i.gold)])
        assert kept == []

    def test_known_agreement_pattern(self, stories50):
        instances = gen_random(stories50, k=1, seed=6)[:6]
        right_on = {instances[0].id, instances[2].id, instances[4].id}
        also_right_on = {instances[0].id, instances[3].id, instances[4].id}

        def stub(right_ids):
            return labeling(lambda inst: inst.gold if inst.id in right_ids
                            else 3 - inst.gold)

        kept = consensus_filter(instances, [stub(right_on), stub(also_right_on)])
        assert [inst.id for inst in kept] == [instances[0].id, instances[4].id]

    def test_unlabeled_rejected(self, stories50):
        from conftest import make_instances
        unlabeled = make_instances(2, seed=30, labeled=False)
        with pytest.raises(ValueError, match="unlabeled"):
            consensus_filter(unlabeled, [labeling(lambda i: 1)])

    def test_no_predictors_rejected(self, stories50):
        instances = gen_random(stories50, k=1, seed=0)
        with pytest.raises(ValueError, match="predictor"):
            consensus_filter(instances, [])

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_per_instance_oracle(self, stories50, seed):
        instances = gen_random(stories50, k=2, seed=seed)
        rng = random.Random(seed)
        answers = [{inst.id: rng.choice((1, 2)) for inst in instances}
                   for _ in range(rng.randint(1, 4))]
        predictors = [labeling(lambda inst, a=a: a[inst.id]) for a in answers]
        assert (consensus_filter(instances, predictors)
                == oracle_filter(instances, predictors))

    def test_each_predictor_sees_only_the_survivors(self, stories50):
        instances = gen_random(stories50, k=2, seed=3)
        seen = []

        def recording(label_of):
            def predict(batch):
                seen.append([inst.id for inst in batch])
                return [label_of(inst) for inst in batch]
            return predict

        first = recording(lambda i: i.gold if i.id.endswith(("0", "2", "4"))
                          else 3 - i.gold)
        kept = consensus_filter(instances, [first, recording(lambda i: i.gold)])
        assert seen[0] == [inst.id for inst in instances]
        assert seen[1] == [inst.id for inst in kept]
        assert 0 < len(kept) < len(instances)

    def test_predictor_must_label_every_instance(self, stories50):
        instances = gen_random(stories50, k=1, seed=0)
        with pytest.raises(ValueError):
            consensus_filter(instances, [lambda batch: [1]])
