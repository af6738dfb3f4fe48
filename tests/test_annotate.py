from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path
from typing import Sequence

import pytest

from clozebase import annotate
from clozebase.annotate import (_COARSE_PREFIXES, _LEXICON, _NUMBER_RE,
                                _PUNCT_TAGS, PUNCTUATION, AnnotatedToken,
                                CoarseClass, SidecarAnnotations, _strip_ed,
                                _strip_ing, _strip_plural, coarse_class,
                                heuristic_tag, tokenize)
from clozebase.errors import ParseError

from conftest import write_sidecar


# The plain tokenizer, coarse-class mapping and per-token tagger: the
# reference the fast path, the cache and the per-word memo must reproduce.
def oracle_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        trailing: list[str] = []
        while chunk and chunk[0] in PUNCTUATION:
            tokens.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in PUNCTUATION:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def oracle_coarse_class(pos: str) -> CoarseClass:
    for prefix, cls in _COARSE_PREFIXES:
        if pos.startswith(prefix):
            return cls
    return CoarseClass.OTHER


def oracle_heuristic_tag(tokens: Sequence[str]) -> list[AnnotatedToken]:
    annotated: list[AnnotatedToken] = []
    prev_tag = ""
    for surface in tokens:
        lower = surface.lower()
        if lower in _LEXICON:
            tag, lemma = _LEXICON[lower]
        elif len(surface) == 1 and surface in _PUNCT_TAGS:
            tag, lemma = _PUNCT_TAGS[surface], surface
        elif _NUMBER_RE.fullmatch(surface):
            tag, lemma = "CD", surface
        elif surface[:1].isupper():
            tag, lemma = "NNP", surface
        elif lower.endswith("ly") and len(lower) > 3:
            tag, lemma = "RB", lower
        elif lower.endswith("ing") and len(lower) >= 5:
            tag, lemma = "VBG", _strip_ing(lower)
        elif lower.endswith("ed") and len(lower) >= 4:
            tag, lemma = "VBD", _strip_ed(lower)
        elif lower.endswith(("ful", "ous", "ive", "less", "able", "ible")):
            tag, lemma = "JJ", lower
        elif (lower.endswith("s") and len(lower) >= 3
              and not lower.endswith(("ss", "us", "is"))):
            tag = "VBZ" if prev_tag in ("PRP", "NNP", "NN") else "NNS"
            lemma = _strip_plural(lower)
        else:
            tag, lemma = "NN", lower
        annotated.append(AnnotatedToken(surface=surface, pos=tag, lemma=lemma))
        prev_tag = tag
    return annotated


def triples(annotated):
    return [(t.surface, t.pos, t.lemma) for t in annotated]


def assert_matches_oracle(tokens):
    assert triples(heuristic_tag(tokens)) == triples(oracle_heuristic_tag(tokens))


def synth_sentences(seed: int, count: int) -> list[str]:
    """Every sentence of a seeded story corpus from the benchmark's generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    synth = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = synth      # its dataclasses look the module up
    spec.loader.exec_module(synth)
    return [text for row in synth.roc_rows(seed, count) for text in row[1:]]


class TestTokenize:
    @pytest.mark.parametrize("text,expected", [
        ("watch out for the waves.",
         ["watch", "out", "for", "the", "waves", "."]),
        ("Hello, world!", ["Hello", ",", "world", "!"]),
        ('She said "yes".', ["She", "said", '"', "yes", '"', "."]),
        ("(almost) done", ["(", "almost", ")", "done"]),
        ("don't stop", ["don't", "stop"]),       # internal apostrophe kept
        ("Wow!!", ["Wow", "!", "!"]),
        ("", []),
        ("   ", []),
        ("one)?", ["one", ")", "?"]),            # trailing order preserved
    ])
    def test_cases(self, text, expected):
        assert tokenize(text) == expected

    def test_detached_tokens_rejoin_to_original_words(self):
        text = "The cat (the gray one!) slept."
        assert "".join(tokenize(text)) == text.replace(" ", "")


class TestCoarseClass:
    @pytest.mark.parametrize("pos,expected", [
        ("NN", CoarseClass.NOUN), ("NNS", CoarseClass.NOUN),
        ("NNP", CoarseClass.NOUN),
        ("VB", CoarseClass.VERB), ("VBD", CoarseClass.VERB),
        ("VBZ", CoarseClass.VERB), ("VBG", CoarseClass.VERB),
        ("JJ", CoarseClass.ADJ), ("JJR", CoarseClass.ADJ),
        ("RB", CoarseClass.ADV), ("RBS", CoarseClass.ADV),
        ("PRP", CoarseClass.PRONOUN), ("PRP$", CoarseClass.PRONOUN),
        ("DT", CoarseClass.OTHER), ("IN", CoarseClass.OTHER),
        (".", CoarseClass.OTHER), ("", CoarseClass.OTHER),
    ])
    def test_mapping(self, pos, expected):
        assert coarse_class(pos) is expected


class TestHeuristicTag:
    def tags(self, text):
        return [(t.surface, t.pos, t.lemma) for t in heuristic_tag(tokenize(text))]

    def test_pronoun_then_verb(self):
        assert self.tags("She runs") == [("She", "PRP", "she"),
                                         ("runs", "VBZ", "run")]

    def test_plural_noun_after_determiner(self):
        assert self.tags("the dogs") == [("the", "DT", "the"),
                                         ("dogs", "NNS", "dog")]

    def test_full_sentence(self):
        assert self.tags("The dogs barked loudly.") == [
            ("The", "DT", "the"),
            ("dogs", "NNS", "dog"),
            ("barked", "VBD", "bark"),
            ("loudly", "RB", "loudly"),
            (".", ".", "."),
        ]

    def test_irregular_verbs_carry_lemmas(self):
        assert self.tags("she was running") == [
            ("she", "PRP", "she"),
            ("was", "VBD", "be"),
            ("running", "VBG", "run"),
        ]

    def test_capitalized_word_is_proper_noun(self):
        assert self.tags("Maria went home") == [
            ("Maria", "NNP", "Maria"),
            ("went", "VBD", "go"),
            ("home", "NN", "home"),
        ]

    def test_lexicon_beats_capitalization(self):
        # sentence-initial pronouns/determiners must not become proper nouns
        assert self.tags("The ocean")[0][1] == "DT"
        assert self.tags("It was")[0][1] == "PRP"

    @pytest.mark.parametrize("word,pos,lemma", [
        ("beautiful", "JJ", "beautiful"),
        ("nervous", "JJ", "nervous"),
        ("careless", "JJ", "careless"),
        ("quickly", "RB", "quickly"),
        ("making", "VBG", "make"),
        ("grabbed", "VBD", "grab"),
        ("tried", "VBD", "try"),
        ("42", "CD", "42"),
        ("3.5", "CD", "3.5"),
        ("pizza", "NN", "pizza"),
        ("glass", "NN", "glass"),     # -ss never strips
        # each lemma rule, pinned apart from the oracle's shared helpers
        ("babies", "NNS", "baby"),    # -ies
        ("boxes", "NNS", "box"),      # -xes, -ches, -ses, -oes
        ("watches", "NNS", "watch"),
        ("buses", "NNS", "bus"),
        ("heroes", "NNS", "hero"),
        ("used", "VBD", "use"),       # two-letter -ed stem
        ("stopped", "VBD", "stop"),   # doubled consonant
        ("thing", "VBG", "thing"),    # -ing stem too short to strip
        ("hoping", "VBG", "hope"),    # silent e restored
    ])
    def test_suffix_rules(self, word, pos, lemma):
        (surface, got_pos, got_lemma), = self.tags(word)
        assert (got_pos, got_lemma) == (pos, lemma)

    def test_punctuation_tags(self):
        assert self.tags(".") == [(".", ".", ".")]
        assert self.tags(",") == [(",", ",", ",")]
        assert self.tags("(")[0][1] == "-LRB-"

    def test_total_function_over_vocab(self):
        from conftest import VOCAB
        annotated = heuristic_tag(list(VOCAB))
        assert len(annotated) == len(VOCAB)
        assert all(tok.pos and tok.lemma for tok in annotated)


class TestMemoizedTagger:
    """The per-word memo, the coarse-class cache and the tokenize fast path
    against the oracles above."""

    def test_synth_corpus_matches_oracle(self):
        for text in synth_sentences(seed=3, count=300):
            tokens = tokenize(text)
            assert tokens == oracle_tokenize(text)
            assert_matches_oracle(tokens)
            for tok in heuristic_tag(tokens):
                assert coarse_class(tok.pos) is oracle_coarse_class(tok.pos)

    @pytest.mark.parametrize("before,pos", [
        ("she", "VBZ"), ("Maria", "VBZ"), ("dog", "VBZ"),    # PRP, NNP, NN
        ("cats", "NNS"), ("his", "NNS"), ("the", "NNS"),     # NNS, PRP$, DT
    ])
    def test_s_word_after_each_tag(self, before, pos):
        tokens = [before, "runs"]
        assert_matches_oracle(tokens)
        assert heuristic_tag(tokens)[1].pos == pos

    def test_same_s_word_in_two_contexts(self):
        for text in ("the runs and he runs", "he runs and the runs",
                     "Maria walks the walks walks"):
            assert_matches_oracle(tokenize(text))
        assert [t.pos for t in heuristic_tag(tokenize("the runs he runs"))] == [
            "DT", "NNS", "PRP", "VBZ"]

    @pytest.mark.parametrize("text", [
        "The end", "I did", "n't", "they don't", "3,000 coins", "-2.5 degrees",
        'She said "yes" (twice).', "\"(x)\"", "((a))", "Élodie smiles",
        "x y z", "'", "... ?!", "",
    ])
    def test_edge_cases_match_oracle(self, text):
        tokens = tokenize(text)
        assert tokens == oracle_tokenize(text)
        assert_matches_oracle(tokens)

    def test_tagging_twice_gives_equal_tokens(self):
        tokens = tokenize("The dogs barked; she runs, he sleeps and Élodie waits.")
        first = heuristic_tag(tokens)
        assert heuristic_tag(tokens) == first
        assert triples(first) == triples(oracle_heuristic_tag(tokens))

    def test_more_words_than_the_memo_holds(self, monkeypatch):
        monkeypatch.setattr(annotate, "_tag_memo", {})
        suffixes = ("s", "ed", "ing", "ly", "ful", "")
        words = [f"zq{i}x{suffixes[i % len(suffixes)]}"
                 for i in range(annotate._TAG_MEMO_SIZE + 600)]
        tokens = ["he", *words, "she", *reversed(words)]
        expected = triples(oracle_heuristic_tag(tokens))
        assert triples(heuristic_tag(tokens)) == expected
        assert len(annotate._tag_memo) == annotate._TAG_MEMO_SIZE
        assert triples(heuristic_tag(tokens)) == expected

    def test_coarse_class_of_many_tags(self):
        tags = [f"{prefix}{i}" for prefix in ("NN", "VB", "JJ", "RB", "PR", "X")
                for i in range(100)]
        for _ in range(2):
            assert [coarse_class(t) for t in tags] == [
                oracle_coarse_class(t) for t in tags]


class TestSidecar:
    def write_sample(self, path):
        path.write_text(
            "She\tPRP\tshe\n"
            "runs\tVBZ\trun\n"
            "\n"
            "The\tDT\tthe\n"
            "end\tNN\tend\n"
            ".\t.\t.\n"
        )

    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "anno.tsv"
        self.write_sample(path)
        sidecar = SidecarAnnotations.load(path)
        annotated = sidecar(["She", "runs"])
        assert annotated == [AnnotatedToken("She", "PRP", "she"),
                             AnnotatedToken("runs", "VBZ", "run")]
        assert sidecar(["The", "end", "."]) == [
            AnnotatedToken("The", "DT", "the"),
            AnnotatedToken("end", "NN", "end"),
            AnnotatedToken(".", ".", ".")]

    def test_written_format_loads_back(self, tmp_path):
        blocks = [heuristic_tag(tokenize(sentence))
                  for sentence in ("She runs.", "The dogs barked loudly.")]
        path = tmp_path / "anno.tsv"
        write_sidecar(path, blocks)
        sidecar = SidecarAnnotations.load(path)
        for block in blocks:
            assert sidecar([tok.surface for tok in block]) == block

    def test_repeated_blank_lines_add_no_sentence(self, tmp_path):
        path = tmp_path / "anno.tsv"
        path.write_text("\n\nShe\tPRP\tshe\n\n\n\nThe\tDT\tthe\n\n")
        sidecar = SidecarAnnotations.load(path)
        assert sidecar(["She"]) == [AnnotatedToken("She", "PRP", "she")]
        assert sidecar(["The"]) == [AnnotatedToken("The", "DT", "the")]
        with pytest.raises(ValueError, match="no sidecar annotation"):
            sidecar([])

    def test_missing_sentence_is_named(self, tmp_path):
        path = tmp_path / "anno.tsv"
        self.write_sample(path)
        sidecar = SidecarAnnotations.load(path)
        with pytest.raises(ValueError, match="no sidecar annotation"):
            sidecar(["Unknown", "sentence"])

    def test_malformed_line_is_numbered(self, tmp_path):
        path = tmp_path / "anno.tsv"
        path.write_text("She\tPRP\tshe\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            SidecarAnnotations.load(path)

    @pytest.mark.parametrize("line", ["\tPRP\tshe", "She\t\tshe"])
    def test_empty_surface_or_pos_is_numbered(self, tmp_path, line):
        path = tmp_path / "anno.tsv"
        path.write_text(f"The\tDT\tthe\n{line}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: "
                           "empty surface or pos field$"):
            SidecarAnnotations.load(path)

    def test_usable_as_annotator(self, tmp_path):
        path = tmp_path / "anno.tsv"
        self.write_sample(path)
        sidecar = SidecarAnnotations.load(path)
        assert sidecar(tokenize("She runs"))[1].lemma == "run"
