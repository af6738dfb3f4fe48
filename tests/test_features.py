from __future__ import annotations

import math
import re
from collections import namedtuple

import numpy as np
import pytest

import clozebase.features as features_module
from clozebase.annotate import (AnnotatedToken, CoarseClass, SidecarAnnotations,
                                coarse_class, heuristic_tag, tokenize)
from clozebase.corpus import ClozeInstance, swap_endings
from clozebase.embeddings import EmbeddingTable, centroid, lookup, make_table
from clozebase.errors import ParseError
from clozebase.features import (CONFIG_BLOCKS, MAX_SIM_TOPNS, POS_CLASSES,
                                Block, FeatureConfig, FeatureVector, Scaler,
                                aligned_sim, apply_scaler, config_for_layout,
                                extract, extract_matrix, feature_names,
                                fit_scaler, load_features, max_sim_topn,
                                min_max_scale, pos_sims, save_features,
                                sim_story_ending)

from conftest import VOCAB, make_instances

# ---------------------------------------------------------------------------
# Brute-force oracle: straight-line reimplementation of every feature block,
# touching only table.entries and raw numpy.
# ---------------------------------------------------------------------------


def o_lookup(table, token):
    if token in table.entries:
        return table.entries[token]
    return table.entries.get(token.lower())


def o_vecs(table, tokens):
    return [o_lookup(table, t) for t in tokens if o_lookup(table, t) is not None]


def o_centroid(table, tokens):
    vecs = o_vecs(table, tokens)
    if not vecs:
        return np.zeros(table.dim)
    total = np.zeros(table.dim)
    for v in vecs:
        total = total + v
    return total / len(vecs)


def o_cosine(a, b):
    na = float(np.sqrt(sum(x * x for x in a)))
    nb = float(np.sqrt(sum(x * x for x in b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(sum(x * y for x, y in zip(a, b)) / (na * nb))


def o_plain_sim(table, story, ending):
    return o_cosine(o_centroid(table, story), o_centroid(table, ending))


def o_max_sim(table, story, ending, n):
    center = o_centroid(table, ending)
    scores = sorted((o_cosine(v, center) for v in o_vecs(table, story)),
                    reverse=True)
    if not scores:
        return 0.0
    top = scores[:n]
    return sum(top) / len(top)


def o_aligned(table, story, ending):
    svecs, evecs = o_vecs(table, story), o_vecs(table, ending)
    if not svecs or not evecs:
        return 0.0
    best = [max(o_cosine(sv, ev) for ev in evecs) for sv in svecs]
    return sum(best) / len(best)


def o_pos_sims(table, story_annotated, ending_annotated):
    values = []
    for cs in POS_CLASSES:
        s_members = [t.surface for t in story_annotated
                     if coarse_class(t.pos) is cs]
        for ce in POS_CLASSES:
            e_members = [t.surface for t in ending_annotated
                         if coarse_class(t.pos) is ce]
            values.append(o_cosine(o_centroid(table, s_members),
                                   o_centroid(table, e_members)))
    return values


def o_extract_all(table, instance):
    """Full 'all'-config vector, assembled independently of extract()."""
    story_sents = [tokenize(s) for s in instance.context]
    story = [t for sent in story_sents for t in sent]
    endings = {1: tokenize(instance.ending1), 2: tokenize(instance.ending2)}
    story_anno = [t for sent in story_sents for t in heuristic_tag(sent)]
    values = list(o_centroid(table, story))
    for k in (1, 2):
        values.extend(o_centroid(table, endings[k]))
    for k in (1, 2):
        ending = endings[k]
        values.append(o_plain_sim(table, story, ending))
        for n in MAX_SIM_TOPNS:
            values.append(o_max_sim(table, story, ending, n))
        values.append(o_aligned(table, story, ending))
        values.extend(o_pos_sims(table, story_anno, heuristic_tag(ending)))
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Scalar reference: the per-block extraction that `extract` replaced, kept
# verbatim (one lookup and one `np.linalg.norm` per cosine call, story side
# rebuilt for each ending). `extract` must equal it to the bit.
# ---------------------------------------------------------------------------


def ref_lookup(table, token):
    vec = table.entries.get(token)
    if vec is None:
        vec = table.entries.get(token.lower())
    return vec


def ref_centroid(table, tokens):
    total = np.zeros(table.dim, dtype=np.float64)
    count = 0
    for token in tokens:
        vec = ref_lookup(table, token)
        if vec is not None:
            total += vec
            count += 1
    if count == 0:
        return total
    return total / count


def ref_cosine(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def ref_in_vocab(tokens, table):
    vectors = []
    for token in tokens:
        vec = ref_lookup(table, token)
        if vec is not None:
            vectors.append(vec)
    return vectors


def ref_sim_story_ending(story_tokens, ending_tokens, table):
    return ref_cosine(ref_centroid(table, story_tokens),
                      ref_centroid(table, ending_tokens))


def ref_max_sim_topn(story_tokens, ending_tokens, table, n):
    ending_centroid = ref_centroid(table, ending_tokens)
    scores = [ref_cosine(vec, ending_centroid)
              for vec in ref_in_vocab(story_tokens, table)]
    if not scores:
        return 0.0
    scores.sort(reverse=True)
    top = scores[:min(n, len(scores))]
    return float(sum(top) / len(top))


def ref_aligned_sim(story_tokens, ending_tokens, table):
    story_vecs = ref_in_vocab(story_tokens, table)
    ending_vecs = ref_in_vocab(ending_tokens, table)
    if not story_vecs or not ending_vecs:
        return 0.0
    best = [max(ref_cosine(sv, ev) for ev in ending_vecs) for sv in story_vecs]
    return float(sum(best) / len(best))


def ref_class_centroid(annotated, cls, table):
    members = [tok.surface for tok in annotated if coarse_class(tok.pos) is cls]
    return ref_centroid(table, members)


def ref_pos_sims(story_annotated, ending_annotated, table):
    story_centroids = {cls: ref_class_centroid(story_annotated, cls, table)
                       for cls in POS_CLASSES}
    ending_centroids = {cls: ref_class_centroid(ending_annotated, cls, table)
                        for cls in POS_CLASSES}
    return [ref_cosine(story_centroids[cs], ending_centroids[ce])
            for cs in POS_CLASSES for ce in POS_CLASSES]


# The per-config block switches the layouts were first written with:
# (story centroid, ending centroids, plain, max, aligned, POS similarity).
RefFlags = namedtuple("RefFlags", "repr_story repr_endings plain_sim max_sim "
                                  "aligned_sim pos_sim")
REF_FLAGS = {
    FeatureConfig.ALL: RefFlags(True, True, True, True, True, True),
    FeatureConfig.ALL_WO_POS_SIM: RefFlags(True, True, True, True, True, False),
    FeatureConfig.ALL_WO_MAX_SIM: RefFlags(True, True, True, False, False, True),
    FeatureConfig.ALL_WO_SIM: RefFlags(True, True, False, True, True, True),
    FeatureConfig.REPR_PLUS_SIM: RefFlags(True, True, True, False, False, False),
    FeatureConfig.ENDINGS_ONLY: RefFlags(False, True, False, False, False, False),
    FeatureConfig.SIMS_ONLY: RefFlags(False, False, True, True, True, True),
}


def ref_extract(instance, table, annotator, config):
    flags = REF_FLAGS[config]
    story_sentences = [tokenize(s) for s in instance.context]
    story_tokens = [tok for sent in story_sentences for tok in sent]
    ending_tokens = {1: tokenize(instance.ending1), 2: tokenize(instance.ending2)}
    if flags.pos_sim:
        story_annotated = [tok for sent in story_sentences
                           for tok in annotator(sent)]
        ending_annotated = {k: annotator(ending_tokens[k]) for k in (1, 2)}
    values = []
    if flags.repr_story:
        values.extend(ref_centroid(table, story_tokens))
    if flags.repr_endings:
        for k in (1, 2):
            values.extend(ref_centroid(table, ending_tokens[k]))
    for k in (1, 2):
        if flags.plain_sim:
            values.append(ref_sim_story_ending(story_tokens, ending_tokens[k],
                                               table))
        if flags.max_sim:
            values.extend(ref_max_sim_topn(story_tokens, ending_tokens[k],
                                           table, n) for n in MAX_SIM_TOPNS)
        if flags.aligned_sim:
            values.append(ref_aligned_sim(story_tokens, ending_tokens[k], table))
        if flags.pos_sim:
            values.extend(ref_pos_sims(story_annotated, ending_annotated[k],
                                       table))
    return np.asarray(values, dtype=np.float64)


def wide_table():
    """300-d float32 vectors widened to float64, as word2vec files load.

    "Dog" and "dog" are distinct entries, so an exact match must win over
    the lowercase fallback; "nothing" is the zero vector.
    """
    rng = np.random.default_rng(2017)
    words = VOCAB + ("Dog",)
    entries = {w: rng.standard_normal(300).astype(np.float32).astype(np.float64)
               for w in words}
    entries["nothing"] = np.zeros(300)
    return make_table(entries, 300)


def edge_instances():
    plain = ("she walked to the park.", "the dog played.",
             "he liked the game.", "they smiled.")
    return [
        # OOV tokens mixed into every sentence
        ClozeInstance("oov", ("zzqx0 she walked zzqx1.", "the zzqx2 dog.",
                              "he zzqx3 played.", "zzqx4 smiled."),
                      "she zzqx5 smiled.", "zzqx6 ran quickly.", 1),
        # lowercase fallback ("The", "She", "Beach") next to an exact "Dog"
        ClozeInstance("case", ("The Dog walked to the Beach.",
                               "She liked the dog.", "He PLAYED.",
                               "They Smiled Loudly."),
                      "She smiled at the Dog.", "The Cat ran.", 2),
        # repeated story words and a repeated ending word
        ClozeInstance("repeat", ("the dog the dog the dog.", "the dog ran.",
                                 "dog dog dog.", "the the the."),
                      "the dog the dog.", "the cat.", 1),
        ClozeInstance("empty-ending", plain, "", "she smiled.", 2),
        ClozeInstance("both-empty", plain, "", "", 1),
        ClozeInstance("all-oov-story", ("zzqx0 zzqx1.", "zzqx2.", "zzqx3 zzqx4.",
                                        "qqq."),
                      "she smiled.", "the dog played.", 1),
        # the zero vector alone, and among other words
        ClozeInstance("zero", ("nothing walked.", "the nothing.",
                               "nothing nothing.", "she smiled."),
                      "nothing.", "nothing at the beach.", 2),
    ]


def block_values(instance, table):
    """`extract`'s `all` layout from the public block functions, called one
    by one as a caller timing each block would call them."""
    story_sents = [tokenize(text) for text in instance.context]
    ends = {1: tokenize(instance.ending1), 2: tokenize(instance.ending2)}
    story = [t for s in story_sents for t in s]
    tagged_story = []
    for sent in story_sents:
        tagged_story += heuristic_tag(sent)
    tagged_ends = {k: heuristic_tag(ends[k]) for k in (1, 2)}
    values = list(centroid(table, story))
    for k in (1, 2):
        values.extend(centroid(table, ends[k]))
    for k in (1, 2):
        values.append(sim_story_ending(story, ends[k], table))
        values.extend(max_sim_topn(story, ends[k], table, n)
                      for n in MAX_SIM_TOPNS)
        values.append(aligned_sim(story, ends[k], table))
        values.extend(pos_sims(tagged_story, tagged_ends[k], table))
    return np.asarray(values)


@pytest.fixture(scope="module")
def wide():
    return wide_table()


@pytest.fixture(scope="module")
def cases():
    return make_instances(25, seed=31) + edge_instances()


class TestBitExactness:
    @pytest.mark.parametrize("config", list(FeatureConfig))
    def test_extract_equals_scalar_reference(self, table, instances50, config):
        for instance in instances50 + edge_instances():
            got = extract(instance, table, heuristic_tag, config).values
            want = ref_extract(instance, table, heuristic_tag, config)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), instance.id

    @pytest.mark.parametrize("config", list(FeatureConfig))
    def test_extract_equals_scalar_reference_at_300d(self, wide, cases, config):
        for instance in cases:
            got = extract(instance, wide, heuristic_tag, config).values
            want = ref_extract(instance, wide, heuristic_tag, config)
            assert got.tobytes() == want.tobytes(), instance.id

    def test_blocks_equal_scalar_reference(self, wide, cases):
        for instance in cases:
            story = [t for s in instance.context for t in tokenize(s)]
            s_anno = heuristic_tag(story)
            for text in (instance.ending1, instance.ending2):
                ending = tokenize(text)
                assert (sim_story_ending(story, ending, wide)
                        == ref_sim_story_ending(story, ending, wide))
                for n in range(1, 7):
                    got = max_sim_topn(story, ending, wide, n)
                    want = ref_max_sim_topn(story, ending, wide, n)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                got = aligned_sim(story, ending, wide)
                want = ref_aligned_sim(story, ending, wide)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                e_anno = heuristic_tag(ending)
                assert (np.asarray(pos_sims(s_anno, e_anno, wide)).tobytes()
                        == np.asarray(ref_pos_sims(s_anno, e_anno, wide)).tobytes())

    def test_edge_cases_reach_their_branches(self, wide):
        by_id = {inst.id: inst for inst in edge_instances()}
        empty = extract(by_id["empty-ending"], wide, heuristic_tag,
                        FeatureConfig.SIMS_ONLY)
        named = dict(zip(empty.names, empty.values))
        assert named["e1_sim"] == named["e1_alignedsim"] == 0.0
        assert named["e1_maxsim_top1"] == 0.0
        story_oov = extract(by_id["all-oov-story"], wide, heuristic_tag,
                            FeatureConfig.ALL)
        assert not story_oov.values[:300].any()
        zero = extract(by_id["zero"], wide, heuristic_tag,
                       FeatureConfig.SIMS_ONLY)
        named = dict(zip(zero.names, zero.values))
        assert named["e1_sim"] == 0.0     # the ending's centroid is zero
        assert named["e2_sim"] != 0.0

    def test_blocks_concatenate_to_extract(self, wide, cases):
        for instance in cases:
            whole = extract(instance, wide, heuristic_tag, FeatureConfig.ALL)
            assert block_values(instance, wide).tobytes() == whole.values.tobytes()


class TestOracleEquivalence:
    def test_all_config_matches_oracle_on_50_instances(self, table, instances50):
        for instance in instances50:
            got = extract(instance, table, heuristic_tag, FeatureConfig.ALL)
            np.testing.assert_allclose(got.values, o_extract_all(table, instance),
                                       rtol=0, atol=1e-10)

    def test_individual_blocks_match_oracle(self, table, instances50):
        for instance in instances50[:20]:
            story = [t for s in instance.context for t in tokenize(s)]
            ending = tokenize(instance.ending1)
            assert sim_story_ending(story, ending, table) == pytest.approx(
                o_plain_sim(table, story, ending), abs=1e-12)
            for n in MAX_SIM_TOPNS:
                assert max_sim_topn(story, ending, table, n) == pytest.approx(
                    o_max_sim(table, story, ending, n), abs=1e-12)
            assert aligned_sim(story, ending, table) == pytest.approx(
                o_aligned(table, story, ending), abs=1e-12)
            s_anno, e_anno = heuristic_tag(story), heuristic_tag(ending)
            np.testing.assert_allclose(pos_sims(s_anno, e_anno, table),
                                       o_pos_sims(table, s_anno, e_anno),
                                       rtol=0, atol=1e-12)


class TestBlockBehavior:
    def test_identical_text_gives_unit_sims(self, table):
        tokens = ["dog", "ocean", "played"]
        assert sim_story_ending(tokens, tokens, table) == pytest.approx(1.0)
        assert aligned_sim(tokens, tokens, table) == pytest.approx(1.0)

    def test_all_oov_gives_zero(self, table):
        assert sim_story_ending(["zzqx1"], ["dog"], table) == 0.0
        assert aligned_sim(["dog"], ["zzqx1"], table) == 0.0
        assert max_sim_topn(["zzqx1"], ["dog"], table, 1) == 0.0

    def test_max_sim_top1_is_max(self, table):
        story = ["dog", "cat", "beach", "pizza"]
        ending = ["ocean", "waves"]
        center = np.mean([table.entries["ocean"], table.entries["waves"]], axis=0)
        per_word = [o_cosine(table.entries[w], center) for w in story]
        assert max_sim_topn(story, ending, table, 1) == pytest.approx(
            max(per_word), abs=1e-12)

    def test_max_sim_needs_a_positive_n(self, table):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            max_sim_topn(["dog"], ["cat"], table, 0)

    def test_max_sim_clamps_to_available(self, table):
        story = ["dog", "cat"]
        got = max_sim_topn(story, ["beach"], table, 5)
        per_word = [o_cosine(table.entries[w], table.entries["beach"])
                    for w in story]
        assert got == pytest.approx(sum(per_word) / 2, abs=1e-12)

    def test_single_pair_aligned_is_pairwise_cosine(self, table):
        got = aligned_sim(["dog"], ["cat"], table)
        assert got == pytest.approx(
            o_cosine(table.entries["dog"], table.entries["cat"]), abs=1e-12)

    def test_pos_sims_length_and_empty_class(self, table):
        story = heuristic_tag(["the", "dog"])        # DT + NN: no verbs
        ending = heuristic_tag(["she", "runs"])
        values = pos_sims(story, ending, table)
        assert len(values) == 25
        verb_row = slice(5, 10)                      # (VERB, *) block
        assert all(v == 0.0 for v in values[verb_row])

    def test_each_token_resolved_once(self, table, instances50, monkeypatch):
        """The POS block reads the rows the texts' one lookup found: `all`
        resolves each token of the three texts once."""
        calls, row = [], features_module._row

        def spy(table, token):
            calls.append(token)
            return row(table, token)
        monkeypatch.setattr(features_module, "_row", spy)
        for instance in instances50[:5]:
            calls.clear()
            extract(instance, table, heuristic_tag, FeatureConfig.ALL)
            assert calls == [tok for text in (*instance.context, instance.ending1,
                                              instance.ending2)
                             for tok in tokenize(text)]


def ref_names(config, dim):
    """The layout as the per-config switches first spelled it out."""
    flags = REF_FLAGS[config]
    names = []
    if flags.repr_story:
        names.extend(f"story_centroid_{i}" for i in range(dim))
    if flags.repr_endings:
        for k in (1, 2):
            names.extend(f"e{k}_centroid_{i}" for i in range(dim))
    for k in (1, 2):
        if flags.plain_sim:
            names.append(f"e{k}_sim")
        if flags.max_sim:
            names.extend(f"e{k}_maxsim_top{n}" for n in MAX_SIM_TOPNS)
        if flags.aligned_sim:
            names.append(f"e{k}_alignedsim")
        if flags.pos_sim:
            names.extend(f"e{k}_possim_{cs.value}_{ce.value}"
                         for cs in POS_CLASSES for ce in POS_CLASSES)
    return tuple(names)


WIDTHS = (1, 2, 3, 16, 300)


def mask_positions(config, dim):
    """Where each of the config's names sits in the `all` layout."""
    position = {name: i for i, name
                in enumerate(feature_names(FeatureConfig.ALL, dim))}
    return [position[name] for name in feature_names(config, dim)]


class TestLayout:
    def test_all_dim300_is_962(self):
        assert len(feature_names(FeatureConfig.ALL, 300)) == 962

    def test_endings_only_is_2dim(self):
        assert len(feature_names(FeatureConfig.ENDINGS_ONLY, 300)) == 600

    @pytest.mark.parametrize("config,dim,expected", [
        (FeatureConfig.ALL, 16, 3 * 16 + 2 * 31),
        (FeatureConfig.ALL_WO_POS_SIM, 16, 3 * 16 + 2 * 6),
        (FeatureConfig.ALL_WO_MAX_SIM, 16, 3 * 16 + 2 * 26),
        (FeatureConfig.ALL_WO_SIM, 16, 3 * 16 + 2 * 30),
        (FeatureConfig.REPR_PLUS_SIM, 16, 3 * 16 + 2 * 1),
        (FeatureConfig.ENDINGS_ONLY, 16, 2 * 16),
        (FeatureConfig.SIMS_ONLY, 16, 2 * 31),
    ])
    def test_lengths_per_config(self, config, dim, expected):
        assert len(feature_names(config, dim)) == expected

    @pytest.mark.parametrize("dim", WIDTHS)
    def test_names_equal_the_per_config_layouts(self, dim):
        for config in FeatureConfig:
            assert feature_names(config, dim) == ref_names(config, dim)

    def test_names_are_one_tuple_per_layout(self):
        for config in FeatureConfig:
            assert feature_names(config, 300) is feature_names(config, 300)
        assert (feature_names(FeatureConfig.ALL, 16)
                is not feature_names(FeatureConfig.ALL, 17))

    def test_names_are_unique_and_stable(self):
        for config in FeatureConfig:
            names = feature_names(config, 16)
            assert len(set(names)) == len(names)
            assert names == feature_names(config, 16)

    def test_config_masks(self):
        def kept(config, pattern):
            return [n for n in feature_names(config, 16) if re.search(pattern, n)]

        assert CONFIG_BLOCKS[FeatureConfig.ALL] == frozenset(Block)
        wo_max = FeatureConfig.ALL_WO_MAX_SIM
        assert kept(wo_max, "maxsim|alignedsim") == []
        assert kept(wo_max, "possim") == kept(FeatureConfig.ALL, "possim")
        assert kept(FeatureConfig.ALL_WO_SIM, r"_sim$") == []
        assert len(kept(FeatureConfig.ALL_WO_SIM, "maxsim")) == 8
        assert kept(FeatureConfig.SIMS_ONLY, "centroid") == []
        assert kept(FeatureConfig.ENDINGS_ONLY, "story|sim") == []
        for config in FeatureConfig:     # an ordered subsequence of `all`
            assert mask_positions(config, 16) == sorted(mask_positions(config, 16))

    def test_extract_layout_matches_names(self, table, instances50):
        for config in FeatureConfig:
            vector = extract(instances50[0], table, heuristic_tag, config)
            assert vector.names == feature_names(config, table.dim)
            assert vector.values.shape == (len(vector.names),)

    def test_config_recoverable_from_names(self):
        for config in FeatureConfig:
            width = 0 if config is FeatureConfig.SIMS_ONLY else 16
            assert config_for_layout(feature_names(config, 16)) == (config, width)

    def test_layouts_are_distinct_and_round_trip(self):
        layouts = {feature_names(config, dim): (config, dim)
                   for config in FeatureConfig for dim in WIDTHS}
        # sims-only is the one layout that reads the same at every width
        assert len(layouts) == len(FeatureConfig) * len(WIDTHS) - (len(WIDTHS) - 1)
        for names, (config, dim) in layouts.items():
            width = 0 if config is FeatureConfig.SIMS_ONLY else dim
            assert config_for_layout(names) == (config, width)
            assert config_for_layout(list(names)) == (config, width)

    def test_unknown_names_rejected(self):
        all16 = feature_names(FeatureConfig.ALL, 16)
        for names in [("mystery_feature",), (), all16[:-1], all16[1:],
                      all16[::-1],
                      tuple(n.replace("story", "tale")
                            for n in feature_names(FeatureConfig.ALL, 3)),
                      ("story_centroid_a",) + feature_names(FeatureConfig.ALL, 1)[1:],
                      feature_names(FeatureConfig.SIMS_ONLY, 1) + ("e1_sim",)]:
            assert config_for_layout(names) is None, names


class TestMasks:
    @pytest.mark.parametrize("config", list(FeatureConfig))
    def test_extract_is_all_at_the_mask(self, table, wide, instances50, cases,
                                        config):
        for tbl, insts in ((table, instances50), (wide, cases)):
            keep = mask_positions(config, tbl.dim)
            for inst in insts:
                whole = extract(inst, tbl, heuristic_tag, FeatureConfig.ALL)
                part = extract(inst, tbl, heuristic_tag, config)
                assert part.values.tobytes() == whole.values[keep].tobytes()

    @pytest.mark.parametrize("configs", [
        tuple(FeatureConfig),
        (FeatureConfig.ENDINGS_ONLY, FeatureConfig.SIMS_ONLY),
        (FeatureConfig.REPR_PLUS_SIM,),
    ])
    def test_matrix_columns_are_extract(self, wide, cases, configs):
        matrix, columns = extract_matrix(cases, wide, heuristic_tag, configs)
        assert matrix.shape[0] == len(cases)
        assert set(columns) == set(configs)
        for config in configs:
            for row, inst in zip(matrix[:, columns[config]], cases):
                want = extract(inst, wide, heuristic_tag, config).values
                assert row.tobytes() == want.tobytes()

    def test_matrix_of_no_instances(self, table):
        matrix, columns = extract_matrix([], table, heuristic_tag,
                                         [FeatureConfig.ENDINGS_ONLY])
        assert matrix.shape == (0, 2 * table.dim)
        assert columns[FeatureConfig.ENDINGS_ONLY].tolist() == list(range(32))

    def test_matrix_needs_annotator_for_any_pos_config(self, table,
                                                       instances50):
        with pytest.raises(ValueError, match="annotations"):
            extract_matrix(instances50, table, None,
                           [FeatureConfig.ENDINGS_ONLY, FeatureConfig.ALL_WO_SIM])


class TestSwapEquivariance:
    def swap_names(self, name):
        if name.startswith("e1_"):
            return "e2_" + name[3:]
        if name.startswith("e2_"):
            return "e1_" + name[3:]
        return name

    @pytest.mark.parametrize("config", list(FeatureConfig))
    def test_exact_block_exchange(self, table, instances50, config):
        for instance in instances50[:10]:
            original = extract(instance, table, heuristic_tag, config)
            swapped = extract(swap_endings(instance), table, heuristic_tag, config)
            lookup = dict(zip(original.names, original.values))
            expected = np.asarray([lookup[self.swap_names(n)]
                                   for n in swapped.names])
            np.testing.assert_array_equal(swapped.values, expected)


class TestExtractValidation:
    def test_pos_config_requires_annotator(self, table, instances50):
        with pytest.raises(ValueError, match="annotations"):
            extract(instances50[0], table, None, FeatureConfig.ALL)

    def test_no_pos_config_runs_without_annotator(self, table, instances50):
        vector = extract(instances50[0], table, None, FeatureConfig.REPR_PLUS_SIM)
        assert vector.values.shape[0] == len(feature_names(
            FeatureConfig.REPR_PLUS_SIM, table.dim))

    def test_annotator_of_another_token_count_refused(self, table, instances50):
        """An annotator must give one token per token; one that drops a
        token is refused wherever the POS block is computed."""
        def drops_one(tokens):
            return heuristic_tag(tokens)[1:]
        instance = instances50[0]
        count = sum(len(tokenize(s)) for s in instance.context)
        message = (f"^the annotator gave {count - 4} tokens for a text of "
                   f"{count}$")
        with pytest.raises(ValueError, match=message):
            extract(instance, table, drops_one, FeatureConfig.ALL)
        with pytest.raises(ValueError, match=message):
            extract_matrix([instance], table, drops_one, [FeatureConfig.ALL])
        vector = extract(instance, table, drops_one, FeatureConfig.ALL_WO_POS_SIM)
        assert vector.values.tobytes() == extract(
            instance, table, heuristic_tag,
            FeatureConfig.ALL_WO_POS_SIM).values.tobytes()

    def test_vector_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="names"):
            FeatureVector(names=("a", "b"), values=np.zeros(3))


def o_min_max_scale(scaler, values):
    """The scaling formula before the guarded division, kept as an oracle."""
    span = scaler.maxs - scaler.mins
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (values - scaler.mins) / span
    return np.clip(np.where(span == 0, 0.0, scaled), 0.0, 1.0)


class TestScaler:
    def vec(self, values, names=None):
        values = np.asarray(values, dtype=np.float64)
        names = names or tuple(f"f{i}" for i in range(len(values)))
        return FeatureVector(names=names, values=values)

    def test_min_max_to_unit(self):
        train = [self.vec([2.0, -1.0]), self.vec([4.0, 1.0])]
        scaler = fit_scaler(train)
        np.testing.assert_array_equal(apply_scaler(scaler, train[0]).values, [0, 0])
        np.testing.assert_array_equal(apply_scaler(scaler, train[1]).values, [1, 1])
        mid = apply_scaler(scaler, self.vec([3.0, 0.0]))
        np.testing.assert_allclose(mid.values, [0.5, 0.5])

    def test_constant_feature_maps_to_zero(self):
        train = [self.vec([7.0, 1.0]), self.vec([7.0, 2.0])]
        scaler = fit_scaler(train)
        assert apply_scaler(scaler, train[0]).values[0] == 0.0
        assert apply_scaler(scaler, self.vec([9.0, 1.5])).values[0] == 0.0

    def test_clamping_outside_train_range(self):
        scaler = fit_scaler([self.vec([0.0]), self.vec([10.0])])
        assert apply_scaler(scaler, self.vec([-5.0])).values[0] == 0.0
        assert apply_scaler(scaler, self.vec([15.0])).values[0] == 1.0

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_scaler([])

    @pytest.mark.parametrize("names, mins, maxs, message", [
        (("a", "b"), [0.0], [1.0], "scaler names/mins/maxs lengths differ"),
        (("a",), [0.0, 1.0], [1.0, 2.0],
         "scaler names/mins/maxs lengths differ"),
        (("a", "b"), [0.0, 2.0], [1.0, 1.0], "scaler has max < min"),
    ])
    def test_inconsistent_scaler_rejected(self, names, mins, maxs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scaler(names, np.asarray(mins), np.asarray(maxs))

    def test_layout_mismatch_rejected(self):
        scaler = fit_scaler([self.vec([1.0, 2.0])])
        with pytest.raises(ValueError, match="layout"):
            apply_scaler(scaler, self.vec([1.0, 2.0], names=("x", "y")))

    def test_matrix_rows_equal_vectors_scaled_one_by_one(self, table,
                                                          instances50):
        vectors = [extract(i, table, heuristic_tag, FeatureConfig.ALL)
                   for i in instances50]
        scaler = fit_scaler(vectors[:30])
        matrix = min_max_scale(scaler, np.stack([v.values for v in vectors]))
        assert matrix.tobytes() == np.stack(
            [apply_scaler(scaler, v).values for v in vectors]).tobytes()

    # columns: a plain range, a constant one, a negative range, a tiny span
    ORACLE_SCALER = Scaler(("a", "b", "c", "d"),
                           np.array([0.0, 5.0, -2.0, 1.0]),
                           np.array([10.0, 5.0, 3.0, 1.0 + 2e-16]))
    ORACLE_ROWS = np.array([
        [0.0, 5.0, -2.0, 1.0],                  # every minimum
        [10.0, 5.0, 3.0, 1.0 + 2e-16],          # every maximum
        [2.5, 5.0, 0.0, 1.0 + 1e-16],
        [-4.0, 7.0, -9.0, 0.5],                 # below the minimum
        [13.0, 4.0, 8.0, 2.0],                  # above the maximum
        [np.inf] * 4,
        [-np.inf] * 4,
        [np.nan] * 4,
        [np.nan, np.inf, -np.inf, 0.25],
    ])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matrix_equals_the_oracle_formula(self, order):
        rows = np.asarray(self.ORACLE_ROWS, order=order)
        got = min_max_scale(self.ORACLE_SCALER, rows)
        assert got.flags.c_contiguous
        assert got.tobytes() == o_min_max_scale(self.ORACLE_SCALER,
                                                rows).tobytes()

    def test_row_equals_the_oracle_formula(self):
        for row in self.ORACLE_ROWS:
            got = min_max_scale(self.ORACLE_SCALER, row)
            assert got.shape == row.shape
            assert got.tobytes() == o_min_max_scale(self.ORACLE_SCALER,
                                                    row).tobytes()

    def test_scaled_features_stay_in_unit_interval(self, table, instances50):
        vectors = [extract(i, table, heuristic_tag, FeatureConfig.ALL)
                   for i in instances50]
        scaler = fit_scaler(vectors[:30])
        for v in vectors:
            scaled = apply_scaler(scaler, v).values
            assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, table, instances50):
        vectors = [extract(i, table, heuristic_tag, FeatureConfig.SIMS_ONLY)
                   for i in instances50[:8]]
        labels = [i.gold for i in instances50[:8]]
        path = tmp_path / "features.csv"
        save_features(path, vectors, labels)
        loaded, got_labels = load_features(path)
        assert got_labels == labels
        for original, restored in zip(vectors, loaded):
            assert restored.names == original.names
            np.testing.assert_array_equal(restored.values, original.values)

    @pytest.mark.parametrize("names, labels, message", [
        (["a"], [1, 2], "1 vectors but 2 labels"),
        ([], [], "nothing to save"),
        (["a", "b"], [1, 2], "inconsistent feature layout across vectors"),
        (["a"], [3], "label must be 1 or 2, got 3"),
    ])
    def test_save_rejects_bad_input(self, tmp_path, names, labels, message):
        vectors = [FeatureVector(names=(name,), values=np.zeros(1))
                   for name in names]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_features(tmp_path / "features.csv", vectors, labels)

    @pytest.mark.parametrize("second, labels, message", [
        ("a", [1, 3], "label must be 1 or 2, got 3"),
        ("b", [1, 2], "inconsistent feature layout across vectors"),
    ])
    @pytest.mark.parametrize("before", [None, "kept\n"])
    def test_bad_later_row_leaves_the_path_as_it_was(self, tmp_path, second,
                                                     labels, message, before):
        path = tmp_path / "features.csv"
        if before is not None:
            path.write_text(before)
        vectors = [FeatureVector(names=(name,), values=np.zeros(1))
                   for name in ("a", second)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_features(path, vectors, labels)
        if before is None:
            assert not path.exists()
        else:
            assert path.read_text() == before

    def test_label_column_validated(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b\n0.5,0.25,x\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: "
                           "label must be 1 or 2, got 'x'$"):
            load_features(path)

    def test_bad_number_names_the_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b\n0.5,0.25,1\n0.5,abc,1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: "
                           "could not convert string to float: 'abc'$"):
            load_features(path)

    def test_column_count_validated(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b\n0.5,1\n")   # 2 columns where 3 expected
        with pytest.raises(ParseError, match="line 2"):
            load_features(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_row_and_column(self, tmp_path, field):
        path = tmp_path / "features.csv"
        path.write_text(f"a,b\n0.5,0.25,1\n0.5,{field},2\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: non-finite value in column b")):
            load_features(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_features(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError,
                           match=re.escape(f"{path}: no feature rows")):
            load_features(path)


# ---------------------------------------------------------------------------
# Per-pair oracle: the memoized extraction that the batched cosines replaced,
# kept as it was (one `cosine_normed` per pair, `vector_norm` per vector),
# with each centroid its own `+=` loop from +0.0 over the vectors, divided by
# their count. `extract_matrix` must equal it byte for byte.
# ---------------------------------------------------------------------------


def vector_norm(v):
    """Euclidean norm as `np.linalg.norm` computes it: sqrt(v·v)."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def cosine_normed(a, norm_a, b, norm_b):
    """Cosine similarity of two float64 vectors whose norms are already
    known; 0.0 when either norm is zero. `a.dot(b)` is `np.dot(a, b)`
    without the function dispatch: the same product, to the bit."""
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(a.dot(b) / (norm_a * norm_b))


def pp_resolver(table):
    memo = {}

    def resolve(token):
        if token not in memo:
            vec = lookup(table, token)
            memo[token] = None if vec is None else (vec, vector_norm(vec))
        return memo[token]
    return resolve


def pp_center(vectors, dim):
    vec = np.zeros(dim)
    for vector in vectors:
        vec += vector
    if vectors:
        vec /= len(vectors)
    return vec, vector_norm(vec)


def pp_text(tokens, resolve, dim):
    """(words, unique, slots, center) as the per-pair code kept a text."""
    words = [word for word in map(resolve, tokens) if word is not None]
    unique = list({id(word[0]): word for word in words}.values())
    slot_of = {id(word[0]): slot for slot, word in enumerate(unique)}
    slots = [slot_of[id(word[0])] for word in words]
    return words, unique, slots, pp_center([word[0] for word in words], dim)


def pp_max_sims(story, ending, topns):
    words, unique, slots, _ = story
    if not words:
        return [0.0] * len(topns)
    per_vector = [cosine_normed(vec, norm, *ending[3]) for vec, norm in unique]
    scores = [per_vector[slot] for slot in slots]
    scores.sort(reverse=True)
    return [float(sum(top) / len(top)) for top in (scores[:n] for n in topns)]


def pp_aligned_sim(story, ending):
    words, unique, slots, _ = story
    if not words or not ending[0]:
        return 0.0
    per_vector = [max([cosine_normed(vec, norm, other, other_norm)
                       for other, other_norm in ending[0]])
                  for vec, norm in unique]
    best = [per_vector[slot] for slot in slots]
    return float(sum(best) / len(best))


def pp_class_centers(annotated, resolve, dim):
    members = {cls: [] for cls in POS_CLASSES}
    for tok in annotated:
        vectors = members.get(coarse_class(tok.pos))
        word = None if vectors is None else resolve(tok.surface)
        if word is not None:
            vectors.append(word[0])
    return [pp_center(members[cls], dim) for cls in POS_CLASSES]


def pp_extract(instance, table, annotator, config):
    blocks = CONFIG_BLOCKS[config]
    dim, resolve = table.dim, pp_resolver(table)
    sentences = [tokenize(s) for s in instance.context]
    endings = (tokenize(instance.ending1), tokenize(instance.ending2))
    texts = [pp_text(tokens, resolve, dim) for tokens in
             ([tok for sent in sentences for tok in sent], *endings)]
    classes = [pp_class_centers(annotated, resolve, dim) for annotated in (
        [tok for sent in sentences for tok in annotator(sent)],
        *map(annotator, endings))]
    values = {
        Block.STORY_CENTROID: lambda k: texts[k][3][0],
        Block.ENDING_CENTROIDS: lambda k: texts[k][3][0],
        Block.PLAIN_SIM: lambda k: [cosine_normed(*texts[0][3], *texts[k][3])],
        Block.MAX_SIM: lambda k: pp_max_sims(texts[0], texts[k], MAX_SIM_TOPNS),
        Block.ALIGNED_SIM: lambda k: [pp_aligned_sim(texts[0], texts[k])],
        Block.POS_SIM: lambda k: [cosine_normed(*cs, *ce) for cs in classes[0]
                                  for ce in classes[k]],
    }
    return np.concatenate([values[block](k) for block, k in
                           features_module._LAYOUT if block in blocks])


def extreme_table(dim):
    """VOCAB at `dim` in full float64, whose sums round differently in
    another order (float32 values widened to float64 often add exactly),
    plus a zero vector ("nothing"), two tiny vectors whose
    norms' product is subnormal ("speck", "mote"), and two vast ones whose
    norms are inf, so that a cosine among them is inf/inf = NaN ("giant",
    "titan", of mixed signs)."""
    rng = np.random.default_rng(dim)
    entries = {w: rng.standard_normal(dim) for w in VOCAB}
    entries["nothing"] = np.zeros(dim)
    for word, scale in (("speck", 3e-162), ("mote", 5e-162),
                        ("giant", 1e160), ("titan", 3e160)):
        entries[word] = scale * rng.choice((-1.0, 1.0), dim)
    return make_table(entries, dim)


def extreme_instances():
    plain = ("she walked to the park.", "the dog played.",
             "he liked the game.", "they smiled.")
    return edge_instances() + [
        ClozeInstance("all-oov-ending", plain, "zzqx0 qqq.", "zzqx1.", 1),
        ClozeInstance("all-oov-both", ("zzqx0.", "zzqx1.", "zzqx2.", "zzqx3."),
                      "zzqx4.", "qqq.", 2),
        ClozeInstance("one-token", ("dog.", "zzqx0.", "zzqx1.", "zzqx2."),
                      "cat.", "quickly.", 1),
        # no adverb, adjective or pronoun anywhere: empty POS classes
        ClozeInstance("empty-class", ("dog walked.", "cat played.",
                                      "pizza jumped.", "ball went."),
                      "dog ran.", "car smiled.", 2),
        ClozeInstance("tiny", ("speck mote speck walked.", "the mote.",
                               "mote dog speck.", "she smiled."),
                      "speck mote.", "the dog speck.", 1),
        # NaN after a row's first cosine, then NaN first
        ClozeInstance("vast-late", ("giant walked.", "titan giant.",
                                    "the dog.", "she smiled."),
                      "dog giant titan.", "cat titan.", 2),
        ClozeInstance("vast-first", ("giant titan.", "giant.", "dog giant.",
                                     "she smiled."),
                      "giant dog.", "titan dog giant.", 1),
        ClozeInstance("mixed", ("speck giant nothing dog.", "titan mote.",
                                "nothing nothing.", "zzqx0 she."),
                      "mote titan nothing.", "speck.", 2),
    ]


def remapped_sidecar(instances):
    """Sidecar annotations of every sentence of the instances: heuristic_tag's
    tokens with NN* tags made JJ* and VB* made RB*, so that the POS classes
    hold other members than under heuristic_tag."""
    swap = {"NN": "JJ", "VB": "RB"}
    return SidecarAnnotations([
        [AnnotatedToken(tok.surface, swap.get(tok.pos[:2], tok.pos[:2])
                        + tok.pos[2:], tok.lemma) for tok in heuristic_tag(tokens)]
        for inst in instances
        for tokens in map(tokenize, (*inst.context, inst.ending1, inst.ending2))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPerPairOracle:
    @pytest.mark.parametrize("dim", [1, 16, 300])
    @pytest.mark.parametrize("config", list(FeatureConfig))
    @pytest.mark.parametrize("annotator", ["heuristic", "sidecar"])
    def test_matrix_equals_per_pair_code(self, dim, config, annotator):
        table = extreme_table(dim)
        instances = make_instances(12, seed=dim) + extreme_instances()
        annotator = (heuristic_tag if annotator == "heuristic"
                     else remapped_sidecar(instances))
        got = extract_matrix(instances, table, annotator, [config])[0]
        want = np.stack([pp_extract(inst, table, annotator, config)
                         for inst in instances])
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_extremes_reach_nan_and_subnormal_cosines(self):
        table = extreme_table(300)
        by_id = {inst.id: inst for inst in extreme_instances()}
        names = feature_names(FeatureConfig.SIMS_ONLY, 300)

        def named(key):
            return dict(zip(names, extract_matrix(
                [by_id[key]], table, heuristic_tag,
                [FeatureConfig.SIMS_ONLY])[0][0]))
        # a vast story word's row starts with a finite cosine, then NaN:
        # Python's max passes over the NaN, as the per-pair loop did
        assert np.isfinite(named("vast-late")["e1_alignedsim"])
        assert np.isnan(named("vast-first")["e1_alignedsim"])
        speck, mote = (table.entries[w] for w in ("speck", "mote"))
        product = vector_norm(speck) * vector_norm(mote)
        assert 0.0 < product < np.finfo(np.float64).tiny
        assert np.isfinite(list(named("tiny").values())).all()

    def test_stacked_matmul_core_is_ndarray_dot(self):
        """The platform fact the batched cosines rest on: numpy runs each
        (1 x d)(d x 1) core of a stacked matmul through `ndarray.dot`'s
        ddot. A numpy or BLAS build where this fails moves features."""
        rng = np.random.default_rng(7)
        for dim in (1, 7, 300, 1000):
            a = rng.standard_normal((6, dim)) * 10.0 ** rng.uniform(-8, 8, dim)
            b = rng.standard_normal((5, dim)) * 10.0 ** rng.uniform(-8, 8, dim)
            stacked = np.matmul(a[:, None, None, :], b[None, :, :, None])
            want = np.array([[u.dot(v) for v in b] for u in a])
            assert stacked[:, :, 0, 0].tobytes() == want.tobytes(), dim
            norms = features_module._norms(a)
            assert norms.tobytes() == np.array(
                [vector_norm(u) for u in a]).tobytes(), dim
            got = features_module._cosines(a, norms, b,
                                           features_module._norms(b))
            assert got.tobytes() == np.array(
                [[cosine_normed(u, vector_norm(u), v, vector_norm(v))
                  for v in b] for u in a]).tobytes(), dim

    @pytest.mark.parametrize("dim", [1, 16, 300])
    def test_float32_table_equals_its_float64_widening(self, dim):
        """The feature code reads a table's vectors as stored: float32
        vectors give the bits of the float64 table of the same values."""
        rng = np.random.default_rng(dim)
        narrow = {w: rng.standard_normal(dim).astype(np.float32)
                  for w in (*VOCAB, "Dog")}
        instances = make_instances(12, seed=dim) + edge_instances()
        # every config at once: the matrix holds every block's columns
        got, want = (extract_matrix(instances, table, heuristic_tag,
                                    list(FeatureConfig))[0]
                     for table in (EmbeddingTable(
                                       dim, np.stack(list(narrow.values())),
                                       {w: i for i, w in enumerate(narrow)}),
                                   make_table(narrow, dim)))
        assert got.tobytes() == want.tobytes()
