"""Seeded synthetic inputs in the formats users supply.

Everything is a pure function of the seed: a word2vec-binary embedding
table, Story Cloze CSVs (labeled) and a ROC story CSV. The real datasets and
vectors are licensed downloads, so none of them is used.

Shape of the data, chosen to resemble the real inputs:

* sentences of about 6-12 tokens built from suffix-shaped invented words, so
  the heuristic tagger yields nouns (plain, plural -s and capitalized names),
  verbs (-ed), adjectives (-ful, -ous, ...), adverbs (-ly) and pronouns;
* about 3 % of all tokens (6 % of content words) have no vector (OOV);
* content words are drawn from topics with Zipf-skewed frequencies, so a few
  lemmas are frequent and the ending index has uneven posting lists;
* the embedding table holds every corpus word plus filler words up to its
  size, so most of it lies outside the corpus vocabulary, as with GoogleNews;
* the right ending shares the story's topic more often than the wrong one;
  the margin is small enough that the linear model lands well below 1.0.

`linear-cell` trains on one fixed training set, as the paper trains on the
one Story Cloze dev set: its table, lexicon and dev split come from
LINEAR_TRAIN_SEED whatever the seed, and the seed draws only its held-out
split. Training time on a fresh training set ranges over 14-26 s from seed to
seed, because the number of objective evaluations in L-BFGS solves that stop
unconverged depends on the data, and that spread alone would fill a
regression check's tolerance.
"""
from __future__ import annotations

import argparse
import csv
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONSONANTS = "bdfgkmnprtvz"
VOWELS = "aeiou"
ADJ_SUFFIXES = ("ful", "ous", "ive", "less", "able")
PRONOUNS = ("He", "She", "They")
DETERMINERS = ("the", "a", "his", "her", "their")
PREPOSITIONS = ("with", "at", "near", "for", "from", "into")

N_TOPICS = 40
TOPIC_SIZES = {"noun": 30, "verb": 15, "adj": 10, "adv": 5}
GENERAL_SIZES = {"noun": 200, "verb": 100, "adj": 50, "adv": 30}
N_NAMES = 60
N_OOV_STEMS = 400
OOV_RATE = 0.06
ZIPF_EXPONENT = 1.1
# Probability that a content word of a context sentence / of an ending comes
# from the sentence's topic rather than the shared pool, and probability that
# a wrong ending is about the story's own topic rather than another one.
# Endings about the story's topic are the whole label signal.
P_TOPIC_CONTEXT = 0.6
P_TOPIC_RIGHT = 0.35
P_TOPIC_WRONG = 0.25


TABLE_WORDS = 100_000
DIM = 300
CLOZE_HEADER = ["id", "sentence1", "sentence2", "sentence3", "sentence4",
                "ending1", "ending2", "label"]
ROC_HEADER = ["id", "title", "sentence1", "sentence2", "sentence3",
              "sentence4", "sentence5"]

LINEAR_TRAIN_SEED = 0
# Files each workload reads: cloze splits with their row counts, the ROC
# corpus size, whether it needs the embedding table, and the splits drawn
# from a fixed seed (see above).
INPUTS = {
    "linear-cell": {"cloze": {"dev": 40, "test": 1000}, "table": True,
                    "fixed": {"seed": LINEAR_TRAIN_SEED, "splits": ("dev",)}},
    "lstm-epoch": {"cloze": {"train": 48, "dev": 32, "test": 100},
                   "table": True},
    "gen-data": {"roc": 1500, "table": False},
}


@dataclass
class Lexicon:
    """Surface forms by word class, per topic and shared."""

    topic: list[dict[str, list[str]]]
    general: dict[str, list[str]]
    names: list[str]
    oov: list[str]


def _stems(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        syllables = rng.randint(2, 3)
        stem = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                       for _ in range(syllables)) + rng.choice(CONSONANTS)
        if stem not in taken:
            taken.add(stem)
            out.append(stem)
    return out


def _forms(kind: str, stems: list[str], rng: random.Random) -> list[str]:
    if kind == "noun":
        return stems
    if kind == "verb":
        return [s + "ed" for s in stems]
    if kind == "adj":
        return [s + rng.choice(ADJ_SUFFIXES) for s in stems]
    return [s + "ly" for s in stems]


def make_lexicon(seed: int) -> Lexicon:
    rng = random.Random(f"lexicon:{seed}")
    taken: set[str] = set()
    topic = [{kind: _forms(kind, _stems(rng, n, taken), rng)
              for kind, n in TOPIC_SIZES.items()} for _ in range(N_TOPICS)]
    general = {kind: _forms(kind, _stems(rng, n, taken), rng)
               for kind, n in GENERAL_SIZES.items()}
    names = [s.capitalize() for s in _stems(rng, N_NAMES, taken)]
    oov = [s + "x" for s in _stems(rng, N_OOV_STEMS, taken)]
    return Lexicon(topic=topic, general=general, names=names, oov=oov)


def _zipf(rng: random.Random, words: list[str]) -> str:
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(words))]
    return rng.choices(words, weights=weights)[0]


class _Writer:
    """Draws sentences whose content words lean towards one topic."""

    def __init__(self, lexicon: Lexicon, rng: random.Random):
        self.lex = lexicon
        self.rng = rng

    def word(self, kind: str, topic: int, p_topic: float) -> str:
        rng = self.rng
        if rng.random() < OOV_RATE:
            word = rng.choice(self.lex.oov)
        elif rng.random() < p_topic:
            word = _zipf(rng, self.lex.topic[topic][kind])
        else:
            word = _zipf(rng, self.lex.general[kind])
        if kind == "noun" and rng.random() < 0.25:
            word += "s"
        return word

    def sentence(self, subject: str, topic: int, p_topic: float) -> str:
        rng = self.rng
        words = [subject]
        if rng.random() < 0.3:
            words.append(self.word("adv", topic, p_topic))
        words.append(self.word("verb", topic, p_topic))
        words.append(rng.choice(DETERMINERS))
        if rng.random() < 0.5:
            words.append(self.word("adj", topic, p_topic))
        words.append(self.word("noun", topic, p_topic))
        if rng.random() < 0.6:
            words += [rng.choice(PREPOSITIONS), rng.choice(DETERMINERS),
                      self.word("noun", topic, p_topic)]
        if rng.random() < 0.3:
            words += ["and", self.word("verb", topic, p_topic),
                      self.word("noun", topic, p_topic)]
        return " ".join(words) + "."

    def subject(self, name: str) -> str:
        return name if self.rng.random() < 0.4 else self.rng.choice(PRONOUNS)

    def story(self, topic: int) -> tuple[str, list[str]]:
        name = _zipf(self.rng, self.lex.names)
        context = [self.sentence(name, topic, P_TOPIC_CONTEXT)]
        context += [self.sentence(self.subject(name), topic, P_TOPIC_CONTEXT)
                    for _ in range(3)]
        return name, context


def cloze_rows(seed: int, split: str, count: int,
               lexicon_seed: int | None = None) -> list[list[str]]:
    """Labeled Story Cloze rows: id, 4 context sentences, 2 endings, label.

    The words come from the lexicon of `lexicon_seed` (default `seed`)."""
    lexicon = make_lexicon(seed if lexicon_seed is None else lexicon_seed)
    rng = random.Random(f"cloze:{split}:{seed}")
    writer = _Writer(lexicon, rng)
    rows = []
    for i in range(count):
        topic = rng.randrange(N_TOPICS)
        other = (topic + rng.randrange(1, N_TOPICS)) % N_TOPICS
        name, context = writer.story(topic)
        right = writer.sentence(writer.subject(name), topic, P_TOPIC_RIGHT)
        # Most wrong endings are about another topic; some are about the
        # story's own, which keeps the label signal weak.
        wrong_topic = topic if rng.random() < P_TOPIC_WRONG else other
        wrong = writer.sentence(writer.subject(name), wrong_topic,
                                P_TOPIC_RIGHT)
        gold = rng.choice((1, 2))
        endings = (right, wrong) if gold == 1 else (wrong, right)
        rows.append([f"{split}-{i:05d}", *context, *endings, str(gold)])
    return rows


def roc_rows(seed: int, count: int) -> list[list[str]]:
    """ROC story rows: id, title, 5 sentences of one topic."""
    lexicon = make_lexicon(seed)
    rng = random.Random(f"roc:{seed}")
    writer = _Writer(lexicon, rng)
    rows = []
    for i in range(count):
        topic = rng.randrange(N_TOPICS)
        name, context = writer.story(topic)
        ending = writer.sentence(writer.subject(name), topic, P_TOPIC_RIGHT)
        title = _zipf(rng, lexicon.topic[topic]["noun"]).capitalize()
        rows.append([f"roc-{i:05d}", title, *context, ending])
    return rows


def corpus_words(seed: int) -> tuple[list[str], list[tuple[str, int | None]]]:
    """Every word the corpus can use that gets a vector, with (class, topic).

    Nouns also get their plural; closed-class words have class "closed".
    """
    lexicon = make_lexicon(seed)
    words: list[str] = []
    origins: list[tuple[str, int | None]] = []

    def add(kind: str, topic: int | None, forms: list[str]) -> None:
        for word in forms:
            for form in (word, word + "s") if kind == "noun" else (word,):
                words.append(form)
                origins.append((kind, topic))

    for t, by_kind in enumerate(lexicon.topic):
        for kind, forms in by_kind.items():
            add(kind, t, forms)
    for kind, forms in lexicon.general.items():
        add(kind, None, forms)
    add("noun", None, [name.lower() for name in lexicon.names])
    add("closed", None, ["he", "she", "they", "and", ".", *DETERMINERS,
                         *PREPOSITIONS])
    return words, origins


def table_vectors(seed: int, table_words: int = TABLE_WORDS,
                  dim: int = DIM) -> tuple[list[str], np.ndarray]:
    """Words and float32 vectors: corpus words near their topic, then filler."""
    words, origins = corpus_words(seed)
    rng = np.random.default_rng(seed)
    topic_centres = rng.standard_normal((N_TOPICS, dim))
    class_centres = {kind: rng.standard_normal(dim) for kind in TOPIC_SIZES}
    class_centres["closed"] = np.zeros(dim)
    rows = []
    for kind, topic in origins:
        centre = 0.4 * class_centres[kind]
        if topic is not None:
            centre = centre + 0.8 * topic_centres[topic]
        rows.append(centre + 0.9 * rng.standard_normal(dim))
    corpus = np.asarray(rows, dtype=np.float32)
    filler_count = table_words - len(words)
    if filler_count < 0:
        raise ValueError(f"table of {table_words} words cannot hold "
                         f"the {len(words)} corpus words")
    filler = rng.standard_normal((filler_count, dim), dtype=np.float32)
    words = words + [f"fill{i:06d}" for i in range(filler_count)]
    return words, np.concatenate([corpus, filler])


def write_word2vec(path: Path, words: list[str], vectors: np.ndarray) -> None:
    """word2vec binary: "<vocab> <dim>\\n" then "<word> " + float32 LE + "\\n"."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    with open(path, "wb") as handle:
        handle.write(f"{len(words)} {vectors.shape[1]}\n".encode("ascii"))
        for word, row in zip(words, vectors):
            handle.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fixed(workload: str, seed: int) -> dict:
    return INPUTS[workload].get("fixed", {"seed": seed, "splits": ()})


def cloze_inputs(workload: str, seed: int) -> dict[str, list[list[str]]]:
    """The cloze rows of each split `workload` reads."""
    fixed = _fixed(workload, seed)
    return {split: cloze_rows(fixed["seed"] if split in fixed["splits"]
                              else seed, split, count,
                              lexicon_seed=fixed["seed"])
            for split, count in INPUTS[workload].get("cloze", {}).items()}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the files `workload` reads into `out`, all derived from `seed`."""
    spec = INPUTS[workload]
    out.mkdir(parents=True, exist_ok=True)
    for split, rows in cloze_inputs(workload, seed).items():
        _write_csv(out / f"{split}.csv", CLOZE_HEADER, rows)
    if "roc" in spec:
        _write_csv(out / "roc.csv", ROC_HEADER, roc_rows(seed, spec["roc"]))
    if spec["table"]:
        write_word2vec(out / "vectors.bin",
                       *table_vectors(_fixed(workload, seed)["seed"]))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=write_inputs.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)
