"""The three workloads, each a closed loop with one caller.

Each workload reads the files synth.py wrote, through the library's own
parsers, and calls the library's public functions. An untraced run times
those calls from outside and reports end-to-end metrics; a traced run wraps
the same calls in spans (spans.py) and reports per-layer metrics.

End-to-end metrics shared by all workloads (a regression check compares
each one per workload, so each must exist on every workload):

  setup_s      mean time to parse the inputs and load the embedding table
  peak_rss_mb  the process high-water mark
  pass_s       mean time of one pass: the workload's calls into the library

  workload     one pass
  linear-cell  train_linear_cell, then held-out extract+predict one at a time
  lstm-epoch   one train_model epoch, then held-out embed+predict_neural
  gen-data     index + gen_shared_args, index + gen_random_coherent, gen_random

A pass is the longest stretch a run can time as one figure. The machine the
benchmark was tuned on changes speed by up to ~1.4x for tens of seconds at
a time, and a figure over a part of a pass (the training, or the
predictions alone) spread up to twice as wide from run to run as the whole
pass.

The figures of each part (training time and rate, latency percentiles,
accuracy, loss, each datagen strategy) are printed by name in the report
lines.
"""
from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from clozebase.annotate import (CoarseClass, coarse_class, heuristic_tag,
                                tokenize)
from clozebase.corpus import augment_swap, parse_cloze_csv, parse_roc_csv
from clozebase.datagen import (build_ending_index, gen_random,
                               gen_random_coherent, gen_shared_args)
from clozebase.embeddings import (EmbeddingFormat, centroid, load_embeddings,
                                  lookup)
from clozebase.features import (MAX_SIM_TOPNS, FeatureConfig, aligned_sim,
                                apply_scaler, extract, fit_scaler,
                                max_sim_topn, pos_sims, sim_story_ending)
from clozebase.harness import evaluate_linear, train_linear_cell
from clozebase.linear import (DEFAULT_C_GRID, cv_tune_c, logreg_objective,
                              minimize_lbfgs, predict, train_logreg)
from clozebase.neural import (TrainConfig, Variant, adam_init, adam_update,
                              attend, backward, cross_entropy, embed_instance,
                              encode, forward, init_params, predict_neural,
                              tensors, train_model, zero_grads)

import stats
import synth
from stats import Checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

FOLDS = 5
CONFIG = FeatureConfig.ALL
HIDDEN = 384
LSTM_BATCH = 16
LEARNING_RATE = 0.001
GEN_K = 10
GEN_POOL = 500
# Before the passes and again after them, set-up is repeated at least this
# often and for at least this long.
SETUP_MIN_LOADS = 2
SETUP_MIN_SECONDS = 1.5
# Held-out instances whose features a traced run computes block by block.
BLOCK_SAMPLE = 40
# Tolerances of the output checks against reference.json.
WEIGHT_RTOL = 1e-6
LOSS_RTOL = 1e-7


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    inputs: Path
    checks: Checks = field(default_factory=Checks)
    report: dict[str, object] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)

    def path(self, name: str) -> Path:
        return self.inputs / name


def _now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def passes(seconds: float, body: Callable[[], None]) -> int:
    """Run body until another pass would end past `seconds`; at least once."""
    start = _now()
    count = 0
    while True:
        gc.collect()
        began = _now()
        body()
        count += 1
        last = _now() - began
        if _now() - start + last > seconds:
            return count


def _wall(fn: Callable[[], object]) -> tuple[float, object]:
    gc.collect()
    began = _now()
    result = fn()
    return _now() - began, result


class SetupTimer:
    """Times the loads of a workload's inputs.

    Half of the loads run before the passes and half after them, so the
    mean samples the machine at both ends of a run; its speed can hold for
    tens of seconds, and a ~10 ms parse repeated for a second sees only one.
    """

    def __init__(self, load: Callable[[], object]):
        self.load = load
        self.times: list[float] = []

    def sample(self) -> object:
        """Load at least SETUP_MIN_LOADS times and for at least
        SETUP_MIN_SECONDS; returns the last copy."""
        spent = 0.0
        loads = 0
        loaded = None
        while loads < SETUP_MIN_LOADS or spent < SETUP_MIN_SECONDS:
            loaded = None      # drop the previous copy before loading again
            gc.collect()
            began = _now()
            loaded = self.load()
            took = _now() - began
            self.times.append(took)
            spent += took
            loads += 1
        return loaded

    def mean(self) -> float:
        return statistics.fmean(self.times)


# --------------------------------------------------------------------------
# Properties of the inputs, computed by the benchmark itself.
# --------------------------------------------------------------------------

_ARGUMENTS = (CoarseClass.NOUN, CoarseClass.PRONOUN)


def _argument_lemmas(text: str) -> set[str]:
    return {tok.lemma.lower() for tok in heuristic_tag(tokenize(text))
            if coarse_class(tok.pos) in _ARGUMENTS}


def input_properties(contexts: list[tuple[str, ...]], endings: list[str],
                     in_table: Callable[[str], bool]) -> dict[str, float]:
    """Tokens per story and ending, OOV share, ending posting-list sizes.

    Every workload reports all of them under one name each: the OOV share
    is taken against the table synth.py writes, loaded or not, and the
    posting lists are those build_ending_index would make of the endings.
    """
    story_tokens = [len(tokenize(" ".join(c))) for c in contexts]
    ending_tokens = [len(tokenize(e)) for e in endings]
    words = [t for text in (*(" ".join(c) for c in contexts), *endings)
             for t in tokenize(text)]
    postings = Counter(lemma for e in endings for lemma in _argument_lemmas(e))
    sizes = list(postings.values()) or [0]
    return {
        "embeddings.oov_token_base": float(len(words)),
        "embeddings.oov_rate": sum(not in_table(w) for w in words) / len(words),
        "data.tokens_per_story": statistics.fmean(story_tokens),
        "data.tokens_per_ending": statistics.fmean(ending_tokens),
        "datagen.posting_mean": statistics.fmean(sizes),
        "datagen.posting_max": float(max(sizes)),
    }


def _cloze_properties(sets, table) -> dict[str, float]:
    instances = [inst for s in sets for inst in s]
    return input_properties([inst.context for inst in instances],
                            [e for inst in instances
                             for e in (inst.ending1, inst.ending2)],
                            lambda w: lookup(table, w) is not None)


# --------------------------------------------------------------------------
# Output checks.
# --------------------------------------------------------------------------

def _reference(run: Run) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(run.workload, {}).get(str(run.seed))


def _projections(weights: np.ndarray) -> list[float]:
    """Weights projected on three fixed random directions."""
    rng = np.random.default_rng(20170313)
    return [float(rng.standard_normal(weights.shape[0]) @ weights)
            for _ in range(3)]


def linear_outputs(model, predictions, test) -> dict[str, object]:
    gold = [inst.gold for inst in test]
    return {
        "c": model.c,
        "test_acc": sum(p == g for p, g in zip(predictions, gold)) / len(gold),
        "weight_norm": float(np.linalg.norm(model.weights)),
        "intercept": model.intercept,
        "projections": _projections(model.weights),
    }


def check_linear(run: Run, out: dict, n_test: int) -> None:
    checks = run.checks
    checks.expect(out["c"] in DEFAULT_C_GRID, f"chosen C {out['c']} off grid")
    checks.expect(np.isfinite(out["weight_norm"]), "non-finite weights")
    ref = _reference(run)
    if ref is None:
        return
    scale = WEIGHT_RTOL * max(1.0, ref["weight_norm"])
    checks.expect(out["c"] == ref["c"], f"chosen C {out['c']} != {ref['c']}")
    checks.expect(abs(out["test_acc"] - ref["test_acc"]) <= 1.0 / n_test + 1e-12,
                  f"test accuracy {out['test_acc']} != {ref['test_acc']}")
    # The projection directions have norm about sqrt(962), i.e. 31.
    weights_ok = (stats.close(out["weight_norm"], ref["weight_norm"], 0.0, scale)
                  and stats.close(out["intercept"], ref["intercept"], 0.0, scale)
                  and all(stats.close(a, b, 0.0, scale * 30.0) for a, b in
                          zip(out["projections"], ref["projections"])))
    checks.expect(weights_ok, "weight digest differs from reference")


def check_lstm(run: Run, out: dict) -> None:
    run.checks.expect(out["params_finite"], "non-finite LSTM parameters")
    run.checks.expect(bool(np.isfinite(out["dev_loss"])), "non-finite dev loss")
    ref = _reference(run)
    if ref is not None:
        run.checks.expect(stats.close(out["dev_loss"], ref["dev_loss"], LOSS_RTOL),
                          f"dev loss {out['dev_loss']!r} != {ref['dev_loss']!r}")


def gen_digest(instances) -> str:
    return stats.rows_digest((i.id, i.ending1, i.ending2, i.gold)
                             for i in instances)


def check_gen(run: Run, stories, outputs: dict[str, list]) -> None:
    own = {s.id: s.ending for s in stories}
    counts = Counter(s.ending for s in stories)
    ref = _reference(run)
    for strategy, instances in outputs.items():
        run.checks.expect(len(instances) == GEN_K * len(stories),
                          f"{strategy}: {len(instances)} instances for "
                          f"{len(stories)} stories")
        bad = 0
        for inst in instances:
            story_id = inst.id.split(f"-{strategy}-")[0]
            right = inst.gold_ending
            wrong = inst.ending2 if inst.gold == 1 else inst.ending1
            # the wrong ending must exist in some other story
            others = counts[wrong] - (1 if wrong == own[story_id] else 0)
            bad += right != own[story_id] or others < 1
        run.checks.expect(bad == 0, f"{strategy}: {bad} instances lack the "
                          "story's own ending or pair it with itself")
        if ref is not None:
            run.checks.expect(gen_digest(instances) == ref[strategy],
                              f"{strategy}: digest differs from reference")


def same_outputs(run: Run, outputs: list[dict]) -> None:
    """Every pass of one run must produce identical outputs."""
    for later in outputs[1:]:
        run.checks.expect(later == outputs[0], "outputs differ between passes")


# --------------------------------------------------------------------------
# Untraced workloads: end-to-end metrics.
# --------------------------------------------------------------------------

def _load_cloze(run: Run, splits: tuple[str, ...]):
    def load():
        sets = [parse_cloze_csv(run.path(f"{s}.csv")) for s in splits]
        table = load_embeddings(run.path("vectors.bin"),
                                EmbeddingFormat.WORD2VEC_BINARY)
        return sets, table
    return load


def _one_at_a_time(run: Run, items, call: Callable) -> tuple[list, list[float]]:
    """Call once per item; returns the results and each call's milliseconds."""
    results, ms = [], []
    for item in items:
        began = _now()
        results.append(call(item))
        ms.append((_now() - began) * 1000.0)
        run.checks.count()
    return results, ms


def _pass_seconds(call_s: list[float], samples_ms: list[list[float]]) -> float:
    """Mean over passes of one long call plus the one-at-a-time calls."""
    return statistics.fmean(t + sum(ms) / 1000.0
                            for t, ms in zip(call_s, samples_ms))


def _report_latency(run: Run, prefix: str, samples_ms: list[list[float]]) -> None:
    """Report the median over passes of each pass's p50 and tail."""
    p50 = stats.median([stats.median(s) for s in samples_ms])
    tails = sorted((stats.tail(s) for s in samples_ms), key=lambda t: t.value)
    tail = tails[len(tails) // 2]
    run.report[f"{prefix}_p50_ms"] = p50
    run.report[f"{prefix}_tail_ms (p{tail.percentile:g}, {tail.samples} "
               f"samples, {tail.beyond} beyond)"] = tail.value


def _linear_pass(run: Run, dev, test, table):
    """train_linear_cell, then extract+predict one held-out instance at a
    time. Returns the model, the predictions, the training seconds and each
    prediction's milliseconds."""
    began = _now()
    model = train_linear_cell(dev, table, CONFIG, heuristic_tag, folds=FOLDS,
                              c_grid=DEFAULT_C_GRID,
                              seed=synth.LINEAR_TRAIN_SEED)
    train_s = _now() - began
    run.checks.count()
    predictions, ms = _one_at_a_time(run, test, lambda inst: predict(
        model, extract(inst, table, heuristic_tag, CONFIG))[0])
    return model, predictions, train_s, ms


def linear_cell(run: Run) -> dict[str, float]:
    setup = SetupTimer(_load_cloze(run, ("dev", "test")))
    sets, table = setup.sample()
    dev, test = sets
    train_s: list[float] = []
    latencies: list[list[float]] = []
    outputs: list[dict] = []

    def one_pass() -> None:
        model, predictions, seconds, ms = _linear_pass(run, dev, test, table)
        train_s.append(seconds)
        latencies.append(ms)
        outputs.append(linear_outputs(model, predictions, test))

    run.report["passes"] = passes(run.seconds, one_pass)
    same_outputs(run, outputs)
    check_linear(run, outputs[0], len(test))
    props = _cloze_properties(sets, table)
    run.report["train_s"] = [round(t, 4) for t in train_s]
    _report_latency(run, "linear_predict", latencies)
    run.report.update({
        "linear_train_s": stats.median(train_s),
        "linear_test_acc": outputs[0]["test_acc"],
        "linear_chosen_c": outputs[0]["c"],
        "oov_rate": props["embeddings.oov_rate"],
        "oov_token_base": props["embeddings.oov_token_base"],
    })
    run.outputs = outputs[0]
    sets = table = dev = test = None     # free the table before loading again
    setup.sample()
    return {"setup_s": setup.mean(),
            "pass_s": _pass_seconds(train_s, latencies)}


def _lstm_config(run: Run) -> TrainConfig:
    return TrainConfig(hidden_size=HIDDEN, batch_size=LSTM_BATCH, epochs=1,
                       learning_rate=LEARNING_RATE, seed=run.seed,
                       variant=Variant.COMBINED)


def _dev_loss(params, embedded) -> float:
    return float(np.mean([cross_entropy(forward(e, params)[0], e.gold)
                          for e in embedded]))


def _params_finite(params) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in tensors(params).values())


def _lstm_pass(run: Run, train, dev, test, table):
    """embed_instance, one train_model epoch and the dev loss, then
    embed_instance+predict_neural one held-out instance at a time. Returns
    the parameters, the dev loss, the epoch seconds and each prediction's
    milliseconds."""
    emb_train = [embed_instance(i, table) for i in train]
    emb_dev = [embed_instance(i, table) for i in dev]
    began = _now()
    result = train_model(emb_train, emb_dev, _lstm_config(run))
    epoch_s = _now() - began
    run.checks.count()
    loss = _dev_loss(result.params, emb_dev)
    _, ms = _one_at_a_time(run, test, lambda inst: predict_neural(
        embed_instance(inst, table), result.params))
    return result.params, loss, epoch_s, ms


def lstm_epoch(run: Run) -> dict[str, float]:
    setup = SetupTimer(_load_cloze(run, ("train", "dev", "test")))
    sets, table = setup.sample()
    train, dev, test = sets
    epoch_s: list[float] = []
    latencies: list[list[float]] = []
    outputs: list[dict] = []

    def one_pass() -> None:
        params, loss, seconds, ms = _lstm_pass(run, train, dev, test, table)
        epoch_s.append(seconds)
        latencies.append(ms)
        outputs.append({"dev_loss": loss,
                        "params_finite": _params_finite(params)})

    run.report["passes"] = passes(run.seconds, one_pass)
    same_outputs(run, outputs)
    check_lstm(run, outputs[0])
    inst_per_s = stats.per_second(len(train), epoch_s)
    props = _cloze_properties(sets, table)
    run.report["epoch_s"] = [round(t, 4) for t in epoch_s]
    _report_latency(run, "lstm_predict", latencies)
    run.report.update({
        "lstm_train_inst_per_s": inst_per_s,
        "lstm_dev_loss": outputs[0]["dev_loss"],
        "oov_rate": props["embeddings.oov_rate"],
        "oov_token_base": props["embeddings.oov_token_base"],
    })
    run.outputs = outputs[0]
    sets = table = train = dev = test = None     # free the table first
    setup.sample()
    return {"setup_s": setup.mean(),
            "pass_s": _pass_seconds(epoch_s, latencies)}


def _generate(stories, seed: int) -> tuple[dict[str, list], dict[str, float], object]:
    """One pass over the three strategies as `clozebase gen-data` runs them."""
    out: dict[str, list] = {}
    times: dict[str, float] = {}
    began = _now()
    index = build_ending_index(stories, heuristic_tag)
    out["shared"] = gen_shared_args(stories, index, k=GEN_K)
    times["shared"] = _now() - began
    began = _now()
    index = build_ending_index(stories, heuristic_tag)
    out["coherent"] = gen_random_coherent(stories, index, pool=GEN_POOL,
                                          k=GEN_K, seed=seed)
    times["coherent"] = _now() - began
    began = _now()
    out["random"] = gen_random(stories, k=GEN_K, seed=seed)
    times["random"] = _now() - began
    return out, times, index


def gen_data(run: Run) -> dict[str, float]:
    setup = SetupTimer(lambda: parse_roc_csv(run.path("roc.csv")))
    stories = setup.sample()
    times: list[dict[str, float]] = []
    digests: list[dict] = []
    last: list = []

    def one_pass() -> None:
        last.clear()       # hold one pass's output at a time
        out, pass_times, index = _generate(stories, run.seed)
        run.checks.count(len(out))
        times.append(pass_times)
        digests.append({k: gen_digest(v) for k, v in out.items()})
        last[:] = [out, index]

    run.report["passes"] = passes(run.seconds, one_pass)
    same_outputs(run, digests)
    out, index = last
    check_gen(run, stories, out)
    rate = {k: stats.per_second(len(stories), [t[k] for t in times])
            for k in ("random", "shared", "coherent")}
    run.report["phase_s"] = [{k: round(v, 4) for k, v in t.items()}
                             for t in times]
    postings = [len(v) for v in index.by_lemma.values()]
    run.report.update({
        "gen_random_stories_per_s": rate["random"],
        "gen_shared_stories_per_s": rate["shared"],
        "gen_coherent_stories_per_s": rate["coherent"],
        "posting_mean": statistics.fmean(postings),
        "posting_max": max(postings),
    })
    run.outputs = digests[0]
    setup.sample()
    return {"setup_s": setup.mean(),
            "pass_s": statistics.fmean(sum(t.values()) for t in times)}


# --------------------------------------------------------------------------
# Traced workloads: per-layer metrics.
# --------------------------------------------------------------------------

def _traced_load(run: Run, tr: Tracer, splits: tuple[str, ...], layer: dict):
    sets = []
    with tr.span("corpus.parse_cloze_csv"):
        for split in splits:
            sets.append(parse_cloze_csv(run.path(f"{split}.csv")))
    gc.collect()
    rss_before = peak_rss_mb()
    with tr.span("embeddings.load_embeddings"):
        table = load_embeddings(run.path("vectors.bin"),
                                EmbeddingFormat.WORD2VEC_BINARY)
    layer.update(_cloze_properties(sets, table))
    layer.update({
        "corpus.parse_s": tr.total("corpus.parse_cloze_csv"),
        "corpus.rows": float(sum(len(s) for s in sets)),
        "embeddings.load_s": tr.total("embeddings.load_embeddings"),
        "embeddings.load_rss_mb": peak_rss_mb() - rss_before,
        "embeddings.vocab": float(len(table)),
    })
    return sets, table


def _traced_train_linear_cell(tr: Tracer, dev, table, seed: int):
    """train_linear_cell split into its public steps, each in a span."""
    with tr.span("harness.train_linear_cell"):
        with tr.span("corpus.augment_swap"):
            instances = augment_swap(dev)
        vectors = []
        for inst in instances:
            with tr.span("features.extract"):
                vectors.append(extract(inst, table, heuristic_tag, CONFIG))
        labels = [inst.gold for inst in instances]
        with tr.span("features.fit_scaler"):
            scaler = fit_scaler(vectors)
        rows = []
        for v in vectors:
            with tr.span("features.apply_scaler"):
                rows.append(apply_scaler(scaler, v).values)
        x = np.stack(rows)
        with tr.span("linear.cv_tune_c"):
            report = cv_tune_c(x, labels, folds=FOLDS, grid=DEFAULT_C_GRID,
                               seed=seed)
        with tr.span("linear.train_logreg"):
            model = train_logreg(x, labels, report.best_c,
                                 names=vectors[0].names, config=CONFIG,
                                 scaler=scaler)
    return model, x, labels


def _same_model(a, b) -> bool:
    return (a.weights.tobytes() == b.weights.tobytes()
            and a.intercept == b.intercept and a.c == b.c
            and a.names == b.names
            and a.scaler.mins.tobytes() == b.scaler.mins.tobytes()
            and a.scaler.maxs.tobytes() == b.scaler.maxs.tobytes())


def _solver_grid(tr: Tracer, x: np.ndarray, labels, model, layer: dict,
                 run: Run) -> None:
    """One solve per grid C on the full scaled matrix, counting evaluations."""
    y_pm = np.where(np.asarray(labels) == 2, 1.0, -1.0)
    iters = evals = unconverged = 0
    per_c = {}
    for c in DEFAULT_C_GRID:
        calls = [0]

        def counted(theta, c=c, calls=calls):
            calls[0] += 1
            return logreg_objective(theta, x, y_pm, c)

        with tr.span("linear.minimize_lbfgs"):
            result = minimize_lbfgs(counted, np.zeros(x.shape[1] + 1))
        iters += result.iterations
        evals += calls[0]
        unconverged += not result.converged
        per_c[repr(c)] = [result.iterations, calls[0], result.converged]
        if c == model.c:
            run.checks.expect(
                result.theta[:-1].tobytes() == model.weights.tobytes(),
                "grid solve at the chosen C differs from the trained model")
    run.report["solver_grid (iterations, evaluations, converged)"] = per_c
    layer.update({"linear.grid_solve_s": tr.total("linear.minimize_lbfgs"),
                  "linear.grid_iters": float(iters),
                  "linear.grid_evals": float(evals),
                  "linear.grid_unconverged": float(unconverged)})


def _feature_blocks(tr: Tracer, sample, table, run: Run, layer: dict) -> None:
    """extract's blocks called one by one; their values must equal extract's."""
    mismatches = 0
    sentences = tokens = 0
    for inst in sample:
        story_sents = []
        for text in inst.context:
            with tr.span("annotate.tokenize"):
                story_sents.append(tokenize(text))
        with tr.span("annotate.tokenize"):
            ends = {1: tokenize(inst.ending1), 2: tokenize(inst.ending2)}
        story = [t for s in story_sents for t in s]
        tagged_story = []
        for sent in story_sents:
            with tr.span("annotate.heuristic_tag"):
                tagged_story += heuristic_tag(sent)
        tagged_ends = {}
        for k in (1, 2):
            with tr.span("annotate.heuristic_tag"):
                tagged_ends[k] = heuristic_tag(ends[k])
        sentences += len(story_sents) + 2
        tokens += len(story) + len(ends[1]) + len(ends[2])
        values: list[float] = []
        with tr.span("features.centroid"):
            values.extend(centroid(table, story))
            for k in (1, 2):
                values.extend(centroid(table, ends[k]))
        for k in (1, 2):
            with tr.span("features.plain_sim"):
                values.append(sim_story_ending(story, ends[k], table))
            with tr.span("features.max_sim"):
                values.extend(max_sim_topn(story, ends[k], table, n)
                              for n in MAX_SIM_TOPNS)
            with tr.span("features.aligned_sim"):
                values.append(aligned_sim(story, ends[k], table))
            with tr.span("features.pos_sims"):
                values.extend(pos_sims(tagged_story, tagged_ends[k], table))
        whole = extract(inst, table, heuristic_tag, CONFIG).values
        mismatches += np.asarray(values).tobytes() != whole.tobytes()
    run.checks.expect(mismatches == 0, f"{mismatches} feature vectors differ "
                      "from their blocks")
    n = len(sample)
    layer.update({
        "annotate.tokenize_us_per_sent":
            tr.total("annotate.tokenize") / sentences * 1e6,
        "annotate.tag_us_per_token":
            tr.total("annotate.heuristic_tag") / tokens * 1e6,
        "features.centroid_ms_per_inst": tr.total("features.centroid") / n * 1e3,
        "features.plain_sim_ms_per_inst": tr.total("features.plain_sim") / n * 1e3,
        "features.max_sim_ms_per_inst": tr.total("features.max_sim") / n * 1e3,
        "features.aligned_sim_ms_per_inst":
            tr.total("features.aligned_sim") / n * 1e3,
        "features.pos_sims_ms_per_inst": tr.total("features.pos_sims") / n * 1e3,
    })


def linear_cell_traced(run: Run, tr: Tracer, diag: Tracer,
                       layer: dict) -> tuple[float, float, float]:
    """Returns the walls of the untraced, traced and untraced passes."""
    (dev, test), table = _traced_load(run, tr, ("dev", "test"), layer)

    def untraced_pass():
        return _linear_pass(run, dev, test, table)

    before, (plain, _, _, _) = _wall(untraced_pass)

    gc.collect()
    began = _now()
    model, x, labels = _traced_train_linear_cell(tr, dev, table,
                                                 synth.LINEAR_TRAIN_SEED)
    predictions = []
    with tr.span("harness.evaluate_linear"):
        for inst in test:
            with tr.span("features.extract"):
                vector = extract(inst, table, heuristic_tag, CONFIG)
            with tr.span("linear.predict"):
                predictions.append(predict(model, vector)[0])
    traced_end = _now()
    traced = traced_end - began
    coverage = tr.top_level_coverage(began, traced_end)

    run.checks.expect(_same_model(model, plain), "traced train_linear_cell "
                      "steps differ from train_linear_cell")
    whole = evaluate_linear(model, test, table, heuristic_tag)
    run.checks.expect(tuple(predictions) == whole.predictions,
                      "traced predictions differ from evaluate_linear")
    out = linear_outputs(model, predictions, test)
    check_linear(run, out, len(test))
    run.outputs = out
    after, _ = _wall(untraced_pass)

    layer.update({
        "features.extract_ms_per_inst": tr.mean("features.extract") * 1e3,
        "features.scaler_s": tr.total("features.fit_scaler")
                             + tr.total("features.apply_scaler"),
        "linear.cv_s": tr.total("linear.cv_tune_c"),
        "linear.retrain_s": tr.total("linear.train_logreg"),
        "linear.predict_us": tr.mean("linear.predict") * 1e6,
        "harness.train_linear_cell_s": tr.total("harness.train_linear_cell"),
        "harness.evaluate_linear_s": tr.total("harness.evaluate_linear"),
        "trace.coverage": coverage,
    })
    _solver_grid(diag, x, labels, model, layer, run)
    _feature_blocks(diag, test[:BLOCK_SAMPLE], table, run, layer)
    return before, traced, after


def lstm_epoch_traced(run: Run, tr: Tracer, diag: Tracer,
                      layer: dict) -> tuple[float, float, float]:
    (train, dev, test), table = _traced_load(run, tr, ("train", "dev", "test"),
                                             layer)

    def untraced_pass():
        return _lstm_pass(run, train, dev, test, table)

    before, (plain, _, _, _) = _wall(untraced_pass)

    gc.collect()
    began = _now()
    emb_train, emb_dev = [], []
    for inst in train:
        with tr.span("neural.embed_instance"):
            emb_train.append(embed_instance(inst, table))
    for inst in dev:
        with tr.span("neural.embed_instance"):
            emb_dev.append(embed_instance(inst, table))
    with tr.span("neural.train_model"):
        result = train_model(emb_train, emb_dev, _lstm_config(run))
    losses = []
    for e in emb_dev:
        with tr.span("neural.forward"):
            probs, _ = forward(e, result.params)
        losses.append(cross_entropy(probs, e.gold))
    for inst in test:
        with tr.span("neural.predict"):
            with tr.span("neural.embed_instance"):
                embedded = embed_instance(inst, table)
            with tr.span("neural.predict_neural"):
                predict_neural(embedded, result.params)
    traced_end = _now()
    traced = traced_end - began
    coverage = tr.top_level_coverage(began, traced_end)

    same = all(a.tobytes() == b.tobytes() for a, b in
               zip(tensors(result.params).values(), tensors(plain).values()))
    run.checks.expect(same, "traced epoch differs from the untraced epoch")
    out = {"dev_loss": float(np.mean(losses)),
           "params_finite": _params_finite(result.params)}
    check_lstm(run, out)
    run.outputs = out
    after, _ = _wall(untraced_pass)

    # One minibatch taken apart: forward, backward and the Adam step, on a
    # fresh model so the epoch above is not disturbed.
    params = init_params(run.seed, table.dim, HIDDEN, Variant.COMBINED)
    state = adam_init(params)
    batch = emb_train[:LSTM_BATCH]
    grads = zero_grads(params)
    for e in batch:
        _, cache = forward(e, params)
        with diag.span("neural.backward"):
            for name, g in backward(cache, e.gold).items():
                grads[name] += g
    with diag.span("neural.adam_update"):
        adam_update(params, state, grads, LEARNING_RATE)
    zeros = np.zeros(HIDDEN)
    for e in batch:
        outputs, h_last, c_last = encode(params.lstm, e.story, zeros, zeros)
        _, h_end, _ = encode(params.lstm, e.ending1, h_last, c_last)
        with diag.span("neural.attend"):
            attend(params.attention, outputs, h_end)

    # the dev instances whose forward passes the traced pass timed
    tokens = [e.story.shape[0] + e.ending1.shape[0] + e.ending2.shape[0]
              for e in emb_dev]
    forward_ms = tr.mean("neural.forward") * 1e3
    layer.update({
        "neural.embed_ms_per_inst": tr.mean("neural.embed_instance") * 1e3,
        "neural.forward_ms_per_inst": forward_ms,
        "neural.backward_ms_per_inst": diag.mean("neural.backward") * 1e3,
        "neural.adam_step_ms": diag.mean("neural.adam_update") * 1e3,
        "neural.attend_us_per_call": diag.mean("neural.attend") * 1e6,
        "neural.forward_us_per_token": forward_ms * 1e3 / statistics.fmean(tokens),
        "neural.tokens_per_inst": statistics.fmean(tokens),
        "trace.coverage": coverage,
    })
    return before, traced, after


def gen_data_traced(run: Run, tr: Tracer, diag: Tracer,
                    layer: dict) -> tuple[float, float, float]:
    with tr.span("corpus.parse_roc_csv"):
        stories = parse_roc_csv(run.path("roc.csv"))
    layer.update({"corpus.parse_s": tr.total("corpus.parse_roc_csv"),
                  "corpus.rows": float(len(stories))})

    before, (plain, _, _) = _wall(lambda: _generate(stories, run.seed))

    gc.collect()
    began = _now()
    out = {}
    with tr.span("datagen.build_ending_index"):
        index = build_ending_index(stories, heuristic_tag)
    with tr.span("datagen.gen_shared_args"):
        out["shared"] = gen_shared_args(stories, index, k=GEN_K)
    with tr.span("datagen.build_ending_index"):
        index = build_ending_index(stories, heuristic_tag)
    with tr.span("datagen.gen_random_coherent"):
        out["coherent"] = gen_random_coherent(stories, index, pool=GEN_POOL,
                                              k=GEN_K, seed=run.seed)
    with tr.span("datagen.gen_random"):
        out["random"] = gen_random(stories, k=GEN_K, seed=run.seed)
    traced_end = _now()
    traced = traced_end - began
    coverage = tr.top_level_coverage(began, traced_end)

    digests = {k: gen_digest(v) for k, v in out.items()}
    run.checks.expect(digests == {k: gen_digest(v) for k, v in plain.items()},
                      "traced datagen differs from the untraced pass")
    check_gen(run, stories, out)
    run.outputs = digests
    after, _ = _wall(lambda: _generate(stories, run.seed))

    postings = [len(v) for v in index.by_lemma.values()]
    props = input_properties([s.context for s in stories],
                             [s.ending for s in stories], _known_word(run))
    run.checks.expect(
        props["datagen.posting_max"] == max(postings)
        and abs(props["datagen.posting_mean"] - statistics.fmean(postings)) < 1e-9,
        "ending index posting lists differ from the benchmark's count")
    layer.update(props)
    layer.update({
        "datagen.index_s": tr.total("datagen.build_ending_index") / 2,
        "datagen.random_s": tr.total("datagen.gen_random"),
        "datagen.shared_s": tr.total("datagen.gen_shared_args"),
        "datagen.coherent_s": tr.total("datagen.gen_random_coherent"),
        "datagen.instances": float(sum(len(v) for v in out.values())),
        "trace.coverage": coverage,
    })
    return before, traced, after


def _known_word(run: Run) -> Callable[[str], bool]:
    """Whether a token has a vector in the table synth.py would write."""
    words, _ = synth.corpus_words(run.seed)
    known = set(words)
    return lambda w: w in known or w.lower() in known


UNTRACED = {"linear-cell": linear_cell, "lstm-epoch": lstm_epoch,
            "gen-data": gen_data}
TRACED = {"linear-cell": linear_cell_traced, "lstm-epoch": lstm_epoch_traced,
          "gen-data": gen_data_traced}


def run_untraced(run: Run) -> dict[str, float]:
    metrics = UNTRACED[run.workload](run)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def run_traced(run: Run, per_layer: list[str], trace_path: Path) -> dict[str, float]:
    """Per-layer metrics; tracing overhead is the traced pass's wall time
    minus the mean of an untraced pass before and one after it.

    `tr` holds the spans of the input load and the traced pass, which
    module self time breaks down; `diag` those of the diagnostics after the
    pass (solver grid, feature blocks, one minibatch), which it leaves out.
    """
    tr = Tracer(run.workload)
    diag = Tracer(run.workload)
    layer: dict[str, float] = {}
    walls = TRACED[run.workload](run, tr, diag, layer)
    run.report["pass_s (untraced, traced, untraced)"] = [round(w, 4)
                                                         for w in walls]
    tr.write(trace_path)
    diag.write(trace_path.with_suffix(".diagnostics.jsonl"))
    for module, seconds in tr.module_self_times().items():
        layer[f"{module}.self_s"] = seconds
    before, traced, after = walls
    layer["trace.overhead_s"] = traced - (before + after) / 2
    layer["trace.spans"] = float(len(tr.spans) + len(diag.spans))
    # Layers a workload does not reach did no work on it.
    return {name: float(layer.get(name, 0.0)) for name in per_layer}
