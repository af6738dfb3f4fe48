from __future__ import annotations

import pytest

from clozebase.annotate import (AnnotatedToken, CoarseClass,
                                SidecarAnnotations, coarse_class,
                                heuristic_tag, tokenize)
from clozebase.errors import ParseError


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
        assert len(sidecar.blocks) == 2
        annotated = sidecar(["She", "runs"])
        assert annotated == [AnnotatedToken("She", "PRP", "she"),
                             AnnotatedToken("runs", "VBZ", "run")]

    def test_save_round_trip(self, tmp_path):
        path = tmp_path / "anno.tsv"
        self.write_sample(path)
        sidecar = SidecarAnnotations.load(path)
        out = tmp_path / "copy.tsv"
        sidecar.save(out)
        assert SidecarAnnotations.load(out).blocks == sidecar.blocks

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

    def test_usable_as_annotator(self, tmp_path):
        path = tmp_path / "anno.tsv"
        self.write_sample(path)
        sidecar = SidecarAnnotations.load(path)
        assert sidecar(tokenize("She runs"))[1].lemma == "run"
