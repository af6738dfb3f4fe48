"""Tokenization and part-of-speech/lemma annotation.

Tags follow Penn Treebank conventions. Two annotator backends satisfy the
same callable contract: given a token list, return one AnnotatedToken per
token, in order, with that token as its surface. They are a sidecar file
carrying externally produced tags, and a built-in heuristic tagger
(closed-class lexicon plus suffix rules). The heuristic exists so the
pipeline runs with no external tooling; only lemma equality matters
downstream, not linguistic correctness.
"""
from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import ParseError

PUNCTUATION = ".,!?;:'\"()"

_PUNCT_TAGS = {
    ".": ".", "!": ".", "?": ".",
    ",": ",",
    ";": ":", ":": ":",
    "(": "-LRB-", ")": "-RRB-",
    "'": "''", '"': "''",
}


def tokenize(text: str) -> list[str]:
    """Whitespace split, then detach leading/trailing punctuation as tokens.

    Casing and internal punctuation (e.g. the apostrophe in "don't") are
    preserved.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk[0] not in PUNCTUATION and chunk[-1] not in PUNCTUATION:
            tokens.append(chunk)
            continue
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


class CoarseClass(enum.Enum):
    NOUN = "noun"
    VERB = "verb"
    ADJ = "adj"
    ADV = "adv"
    PRONOUN = "pronoun"
    OTHER = "other"


_COARSE_PREFIXES = (
    ("NN", CoarseClass.NOUN),
    ("VB", CoarseClass.VERB),
    ("JJ", CoarseClass.ADJ),
    ("RB", CoarseClass.ADV),
    ("PR", CoarseClass.PRONOUN),
)


@functools.lru_cache(maxsize=256)
def coarse_class(pos: str) -> CoarseClass:
    """Collapse a Treebank tag to a coarse class by prefix; total and deterministic."""
    for prefix, cls in _COARSE_PREFIXES:
        if pos.startswith(prefix):
            return cls
    return CoarseClass.OTHER


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    surface: str
    pos: str
    lemma: str


# One AnnotatedToken per input token, in order, that token as its surface.
Annotator = Callable[[Sequence[str]], "list[AnnotatedToken]"]


# Closed-class lexicon: lowercased surface -> (tag, lemma). Kept small; open-class
# words fall through to the suffix rules.
_LEXICON: dict[str, tuple[str, str]] = {}


def _lex(tag: str, *words: str) -> None:
    for word in words:
        _LEXICON[word] = (tag, word)


_lex("PRP", "i", "me", "you", "he", "him", "she", "her", "it", "we", "us",
     "they", "them", "myself", "yourself", "himself", "herself", "itself",
     "ourselves", "themselves", "mine", "yours", "hers", "ours", "theirs")
_lex("PRP$", "my", "your", "his", "its", "our", "their")
_lex("DT", "the", "a", "an", "this", "that", "these", "those", "some", "any",
     "each", "every", "no", "both", "all", "another")
_lex("CC", "and", "but", "or", "nor", "so", "yet")
_lex("IN", "about", "above", "across", "after", "against", "around", "as",
     "at", "because", "before", "behind", "below", "between", "by", "down",
     "during", "for", "from", "if", "in", "inside", "into", "near", "of",
     "off", "on", "out", "outside", "over", "than", "through", "under",
     "until", "up", "upon", "while", "with", "without")
_lex("TO", "to")
_lex("MD", "can", "could", "may", "might", "must", "shall", "should", "will", "would")
_lex("RB", "not", "n't", "very", "too", "also", "just", "never", "always",
     "often", "soon", "then", "there", "here", "now", "again", "really",
     "quite", "almost", "already", "still", "away", "maybe", "perhaps")
_lex("WP", "who", "whom", "what")
_lex("WDT", "which")
_lex("WRB", "where", "when", "why", "how")
_lex("UH", "oh", "hey", "wow", "yeah", "yes")
_lex("CD", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")

# Irregular verb forms: surface -> (tag, lemma).
_IRREGULAR_VERBS = {
    "am": ("VBP", "be"), "is": ("VBZ", "be"), "are": ("VBP", "be"),
    "was": ("VBD", "be"), "were": ("VBD", "be"), "be": ("VB", "be"),
    "been": ("VBN", "be"), "being": ("VBG", "be"),
    "have": ("VBP", "have"), "has": ("VBZ", "have"), "had": ("VBD", "have"),
    "having": ("VBG", "have"),
    "do": ("VBP", "do"), "does": ("VBZ", "do"), "did": ("VBD", "do"),
    "doing": ("VBG", "do"), "done": ("VBN", "do"),
    "go": ("VB", "go"), "goes": ("VBZ", "go"), "went": ("VBD", "go"),
    "gone": ("VBN", "go"), "going": ("VBG", "go"),
    "get": ("VB", "get"), "gets": ("VBZ", "get"), "got": ("VBD", "get"),
    "gotten": ("VBN", "get"),
    "say": ("VB", "say"), "says": ("VBZ", "say"), "said": ("VBD", "say"),
    "make": ("VB", "make"), "made": ("VBD", "make"),
    "take": ("VB", "take"), "took": ("VBD", "take"), "taken": ("VBN", "take"),
    "come": ("VB", "come"), "came": ("VBD", "come"),
    "see": ("VB", "see"), "saw": ("VBD", "see"), "seen": ("VBN", "see"),
    "know": ("VB", "know"), "knew": ("VBD", "know"), "known": ("VBN", "know"),
    "think": ("VB", "think"), "thought": ("VBD", "think"),
    "feel": ("VB", "feel"), "felt": ("VBD", "feel"),
    "find": ("VB", "find"), "found": ("VBD", "find"),
    "tell": ("VB", "tell"), "told": ("VBD", "tell"),
    "give": ("VB", "give"), "gave": ("VBD", "give"), "given": ("VBN", "give"),
    "run": ("VB", "run"), "ran": ("VBD", "run"),
    "buy": ("VB", "buy"), "bought": ("VBD", "buy"),
    "leave": ("VB", "leave"), "left": ("VBD", "leave"),
    "begin": ("VB", "begin"), "began": ("VBD", "begin"),
    "eat": ("VB", "eat"), "ate": ("VBD", "eat"),
    "drive": ("VB", "drive"), "drove": ("VBD", "drive"),
    "win": ("VB", "win"), "won": ("VBD", "win"),
    "lose": ("VB", "lose"), "lost": ("VBD", "lose"),
    "bring": ("VB", "bring"), "brought": ("VBD", "bring"),
    "catch": ("VB", "catch"), "caught": ("VBD", "catch"),
    "keep": ("VB", "keep"), "kept": ("VBD", "keep"),
    "sleep": ("VB", "sleep"), "slept": ("VBD", "sleep"),
    "meet": ("VB", "meet"), "met": ("VBD", "meet"),
    "pay": ("VB", "pay"), "paid": ("VBD", "pay"),
    "sit": ("VB", "sit"), "sat": ("VBD", "sit"),
    "stand": ("VB", "stand"), "stood": ("VBD", "stand"),
    "speak": ("VB", "speak"), "spoke": ("VBD", "speak"),
    "break": ("VB", "break"), "broke": ("VBD", "break"),
    "choose": ("VB", "choose"), "chose": ("VBD", "choose"),
    "fall": ("VB", "fall"), "fell": ("VBD", "fall"),
    "grow": ("VB", "grow"), "grew": ("VBD", "grow"),
    "hear": ("VB", "hear"), "heard": ("VBD", "hear"),
    "hold": ("VB", "hold"), "held": ("VBD", "hold"),
    "throw": ("VB", "throw"), "threw": ("VBD", "throw"),
    "wake": ("VB", "wake"), "woke": ("VBD", "wake"),
    "wear": ("VB", "wear"), "wore": ("VBD", "wear"),
    "write": ("VB", "write"), "wrote": ("VBD", "write"),
    "put": ("VB", "put"), "let": ("VB", "let"),
}
_LEXICON.update(_IRREGULAR_VERBS)

_NUMBER_RE = re.compile(r"[+-]?\d[\d,.]*")
_VOWELS = "aeiou"


def _ends_cvc(stem: str) -> bool:
    """Consonant-vowel-consonant tail, final consonant not w/x/y: the stem
    dropped a silent e ("lik" -> "like"). Callers pass 3 letters or more."""
    last, mid, first = stem[-1], stem[-2], stem[-3]
    return (last not in _VOWELS and last not in "wxy"
            and mid in _VOWELS and first not in _VOWELS)


def _undouble(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "lsz" and stem[-1] not in _VOWELS:
        return stem[:-1]
    return stem


def _strip_plural(word: str) -> str:
    """`_tag_word` passes only words of 3+ letters in -s, not -ss/-us/-is."""
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ches", "shes", "xes", "ses", "zes", "oes")):
        return word[:-2]
    return word[:-1]


def _strip_ing(word: str) -> str:
    stem = word[:-3]
    if len(stem) < 3:
        return word
    undoubled = _undouble(stem)
    if undoubled != stem:
        return undoubled
    if _ends_cvc(stem):
        return stem + "e"
    return stem


def _strip_ed(word: str) -> str:
    """`_tag_word` passes only words of 4+ letters in -ed."""
    if word.endswith("ied") and len(word) >= 5:
        return word[:-3] + "y"
    stem = word[:-2]
    if len(stem) == 2:
        return stem + "e"
    undoubled = _undouble(stem)
    if undoubled != stem:
        return undoubled
    if _ends_cvc(stem):
        return stem + "e"
    return stem


def _tag_word(surface: str) -> tuple[AnnotatedToken, AnnotatedToken]:
    """The word's token after a tag outside `_VBZ_AFTER`, then after one in it;
    only the -s rule tells the two apart (NNS, then VBZ)."""
    lower = surface.lower()
    if lower == surface:
        lower = surface     # one string, not two, for the memo to hold
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
        lemma = _strip_plural(lower)
        return (AnnotatedToken(surface, "NNS", lemma),
                AnnotatedToken(surface, "VBZ", lemma))
    else:
        tag, lemma = "NN", lower
    token = AnnotatedToken(surface, tag, lemma)
    return token, token


# `_tag_word`'s answer per surface. A word's tokens depend on nothing else,
# and AnnotatedToken is frozen, so every sentence can share them. Bounded:
# once full, further words are tagged afresh each time, not kept.
_TAG_MEMO_SIZE = 1 << 16
_tag_memo: dict[str, tuple[AnnotatedToken, AnnotatedToken]] = {}
_VBZ_AFTER = frozenset({"PRP", "NNP", "NN"})


def heuristic_tag(tokens: Sequence[str]) -> list[AnnotatedToken]:
    """Tag and lemmatize with the fixed lexicon + suffix rule table.

    Rules, in order: lexicon, punctuation, number, capitalized -> NNP,
    -ly -> RB, -ing -> VBG, -ed -> VBD, adjective suffixes -> JJ, and -s ->
    VBZ when the previous tag is PRP, NNP or NN, else NNS (so "his dogs"
    and "cats runs" both give NNS). Everything else is NN.
    """
    annotated: list[AnnotatedToken] = []
    after_noun = False
    for surface in tokens:
        pair = _tag_memo.get(surface)
        if pair is None:
            pair = _tag_word(surface)
            if len(_tag_memo) < _TAG_MEMO_SIZE:
                _tag_memo[surface] = pair
        token = pair[after_noun]
        annotated.append(token)
        after_noun = token.pos in _VBZ_AFTER
    return annotated


class SidecarAnnotations:
    """Annotations loaded from a sidecar file written by an external tagger.

    File format: one `surface<TAB>pos<TAB>lemma` line per token, blank line
    between sentences, sentences in corpus order. Lookup is by the sentence's
    token sequence.
    """

    def __init__(self, blocks: Sequence[Sequence[AnnotatedToken]]):
        self._by_surface: dict[tuple[str, ...], list[AnnotatedToken]] = {}
        for block in blocks:
            key = tuple(tok.surface for tok in block)
            self._by_surface.setdefault(key, list(block))

    @classmethod
    def load(cls, path: str | Path) -> "SidecarAnnotations":
        path = Path(path)
        blocks: list[list[AnnotatedToken]] = [[]]
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    blocks.append([])
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ParseError(f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
                surface, pos, lemma = fields
                if not surface or not pos:
                    raise ParseError(f"{path}: line {lineno}: empty surface or pos field")
                blocks[-1].append(AnnotatedToken(surface=surface, pos=pos, lemma=lemma))
        return cls([block for block in blocks if block])

    def __call__(self, tokens: Sequence[str]) -> list[AnnotatedToken]:
        block = self._by_surface.get(tuple(tokens))
        if block is None:
            sentence = " ".join(tokens)
            raise ValueError(f"no sidecar annotation covers sentence: {sentence!r}")
        return list(block)
