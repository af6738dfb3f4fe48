from __future__ import annotations

import io
import json
import math
import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from clozebase import neural
from clozebase.corpus import ClozeInstance
from clozebase.errors import ParseError
from clozebase.neural import (ADAM_EPS, CHECKPOINT_VERSION, GATES,
                              AttentionParams, EmbeddedInstance, LstmParams,
                              ModelParams, TrainConfig, Variant, adam_init,
                              adam_update,
                              attend, backward, backward_batch,
                              cross_entropy, embed_instance, embed_tokens,
                              encode, evaluate_model, forward, forward_batch,
                              init_params, load_checkpoint, predict_neural,
                              save_checkpoint, tensors, train_model)


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def rel_err(a, b):
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-300)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def random_embedded(rng, d=4, lengths=(3, 2, 2), gold=1):
    return EmbeddedInstance(
        id="fixture",
        story=rng.standard_normal((lengths[0], d)),
        ending1=rng.standard_normal((lengths[1], d)),
        ending2=rng.standard_normal((lengths[2], d)),
        gold=gold,
    )


def make_synthetic(n, d, seed):
    """Instances whose correct ending carries a strong marker direction."""
    rng = np.random.default_rng(seed)
    marker = np.zeros(d)
    marker[0] = 1.0
    out = []
    for i in range(n):
        story = rng.standard_normal((4, d)) * 0.5
        good = rng.standard_normal((3, d)) * 0.5 + 2.5 * marker
        bad = rng.standard_normal((3, d)) * 0.5 - 2.5 * marker
        gold = int(rng.integers(1, 3))
        e1, e2 = (good, bad) if gold == 1 else (bad, good)
        out.append(EmbeddedInstance(f"syn-{i}", story, e1, e2, gold))
    return out


# ---------------------------------------------------------------------------
# Oracle: the per-gate LSTM that the fused, batched cell replaced, one
# instance and one time step at a time. It reads views of the fused tensors
# (rows k*h .. (k+1)*h - 1 are gate GATES[k]) and reports gradients in the
# fused layout.
# ---------------------------------------------------------------------------


def gate_views(lstm):
    h = lstm.hidden_size
    views = {}
    for k, gate in enumerate(GATES):
        rows = slice(k * h, (k + 1) * h)
        views[f"w_x{gate}"] = lstm.w_x[rows]
        views[f"w_h{gate}"] = lstm.w_h[rows]
        views[f"b_{gate}"] = lstm.b[rows]
    return views


def o_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def o_encode(w, xs, h0, c0):
    steps = []
    h, c = h0, c0
    for x in xs:
        i = o_sigmoid(w["w_xi"] @ x + w["w_hi"] @ h + w["b_i"])
        f = o_sigmoid(w["w_xf"] @ x + w["w_hf"] @ h + w["b_f"])
        g = np.tanh(w["w_xg"] @ x + w["w_hg"] @ h + w["b_g"])
        o = o_sigmoid(w["w_xo"] @ x + w["w_ho"] @ h + w["b_o"])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append({"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f,
                      "g": g, "o": o, "tanh_c": tanh_c, "h": h_new,
                      "c": c_new})
        h, c = h_new, c_new
    return steps


def o_encode_backward(w, steps, d_outputs, d_h_last, d_c_last, grads):
    carry_dh, carry_dc = d_h_last.copy(), d_c_last.copy()
    for t in range(len(steps) - 1, -1, -1):
        st = steps[t]
        dh = carry_dh if d_outputs is None else carry_dh + d_outputs[t]
        dc = carry_dc + dh * st["o"] * (1.0 - st["tanh_c"] ** 2)
        da = {"i": dc * st["g"] * st["i"] * (1.0 - st["i"]),
              "f": dc * st["c_prev"] * st["f"] * (1.0 - st["f"]),
              "g": dc * st["i"] * (1.0 - st["g"] ** 2),
              "o": dh * st["tanh_c"] * st["o"] * (1.0 - st["o"])}
        carry_dc = dc * st["f"]
        for gate, a in da.items():
            grads[f"w_x{gate}"] += np.outer(a, st["x"])
            grads[f"w_h{gate}"] += np.outer(a, st["h_prev"])
            grads[f"b_{gate}"] += a
        carry_dh = sum(w[f"w_h{gate}"].T @ da[gate] for gate in GATES)
    return carry_dh, carry_dc


def o_attend(ap, outputs, h_e):
    m = np.tanh(outputs @ ap.w_y.T + ap.w_h @ h_e)
    scores = m @ ap.w
    exp = np.exp(scores - scores.max())
    alpha = exp / exp.sum()
    r = outputs.T @ alpha
    h_star = np.tanh(ap.w_p @ r + ap.w_x @ h_e)
    return {"h_e": h_e, "m": m, "alpha": alpha, "r": r, "h_star": h_star}


def o_attend_backward(ap, outputs, a, d_h_star, grads):
    dz = d_h_star * (1.0 - a["h_star"] ** 2)
    grads["att.w_p"] += np.outer(dz, a["r"])
    grads["att.w_x"] += np.outer(dz, a["h_e"])
    dr = ap.w_p.T @ dz
    d_h_e = ap.w_x.T @ dz
    d_alpha = outputs @ dr
    d_outputs = np.outer(a["alpha"], dr)
    ds = a["alpha"] * (d_alpha - float(a["alpha"] @ d_alpha))
    grads["att.w"] += a["m"].T @ ds
    da = np.outer(ds, ap.w) * (1.0 - a["m"] ** 2)
    grads["att.w_y"] += da.T @ outputs
    da_sum = da.sum(axis=0)
    grads["att.w_h"] += np.outer(da_sum, a["h_e"])
    d_outputs += da @ ap.w_y
    d_h_e += ap.w_h.T @ da_sum
    return d_outputs, d_h_e


def o_forward(inst, params):
    w = gate_views(params.lstm)
    h = params.lstm.hidden_size
    zeros = np.zeros(h)
    story = o_encode(w, inst.story, zeros, zeros)
    ends = [o_encode(w, seq, story[-1]["h"], story[-1]["c"])
            for seq in (inst.ending1, inst.ending2)]
    e = [steps[-1]["h"] for steps in ends]
    outputs = np.array([st["h"] for st in story])
    atts = None
    if params.variant is Variant.RAW:
        o_vec = np.concatenate(e)
    else:
        atts = [o_attend(params.attention, outputs, e[k]) for k in (0, 1)]
        if params.variant is Variant.ATTENTION:
            o_vec = np.concatenate([atts[0]["h_star"], atts[1]["h_star"]])
        else:
            o_vec = np.concatenate([e[0], atts[0]["h_star"],
                                    e[1], atts[1]["h_star"]])
    logits = params.head.w_out @ o_vec + params.head.b_out
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    return probs, {"story": story, "ends": ends, "atts": atts,
                   "outputs": outputs, "o_vec": o_vec, "probs": probs}


def o_backward(params, cache, gold):
    w = gate_views(params.lstm)
    h = params.lstm.hidden_size
    grads = {name: np.zeros_like(arr) for name, arr in w.items()}
    for name, arr in tensors(params).items():
        if not name.startswith("lstm."):
            grads[name] = np.zeros_like(arr)
    d_logits = cache["probs"].copy()
    d_logits[gold - 1] -= 1.0
    grads["head.w_out"] += np.outer(d_logits, cache["o_vec"])
    grads["head.b_out"] += d_logits
    d_o = params.head.w_out.T @ d_logits
    if params.variant is Variant.RAW:
        d_e, d_h_star = [d_o[:h], d_o[h:]], [None, None]
    elif params.variant is Variant.ATTENTION:
        d_e, d_h_star = [np.zeros(h), np.zeros(h)], [d_o[:h], d_o[h:]]
    else:
        d_e = [d_o[:h], d_o[2 * h:3 * h]]
        d_h_star = [d_o[h:2 * h], d_o[3 * h:]]
    d_story_outputs = np.zeros_like(cache["outputs"])
    d_story_h, d_story_c = np.zeros(h), np.zeros(h)
    for k in (0, 1):
        d_h_last = d_e[k].copy()
        if d_h_star[k] is not None:
            d_out, d_h_e = o_attend_backward(params.attention,
                                             cache["outputs"],
                                             cache["atts"][k], d_h_star[k],
                                             grads)
            d_story_outputs += d_out
            d_h_last += d_h_e
        d_h0, d_c0 = o_encode_backward(w, cache["ends"][k], None, d_h_last,
                                       np.zeros(h), grads)
        d_story_h += d_h0
        d_story_c += d_c0
    o_encode_backward(w, cache["story"], d_story_outputs, d_story_h,
                      d_story_c, grads)
    fused = {f"lstm.{name}": np.concatenate([grads[pattern.format(g)]
                                             for g in GATES])
             for name, pattern in (("w_x", "w_x{}"), ("w_h", "w_h{}"),
                                   ("b", "b_{}"))}
    fused.update({k: v for k, v in grads.items() if "." in k})
    return fused


def ragged_batch(rng, d=4):
    """Stories of different lengths, length-1 endings, both gold labels."""
    lengths = [(3, 1, 2), (6, 2, 1), (1, 1, 1), (4, 3, 4), (6, 1, 5)]
    return [EmbeddedInstance(f"r-{k}", rng.standard_normal((s, d)),
                             rng.standard_normal((a, d)),
                             rng.standard_normal((b, d)), gold=1 + k % 2)
            for k, (s, a, b) in enumerate(lengths)]


class TestAgainstPerGateOracle:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_probabilities(self, variant):
        rng = np.random.default_rng(40)
        params = init_params(41, 4, 5, variant)
        for inst in ragged_batch(rng):
            assert rel_err(forward(inst, params)[0],
                           o_forward(inst, params)[0]) < 1e-12

    @pytest.mark.parametrize("variant", list(Variant))
    def test_minibatch_gradients(self, variant):
        rng = np.random.default_rng(42)
        params = init_params(43, 4, 5, variant)
        batch = ragged_batch(rng)
        _, cache = forward_batch(batch, params)
        got = backward_batch(cache, [inst.gold for inst in batch])
        want = {name: np.zeros_like(arr) for name, arr in tensors(params).items()}
        for inst in batch:
            _, o_cache = o_forward(inst, params)
            for name, g in o_backward(params, o_cache, inst.gold).items():
                want[name] += g
        assert set(got) == set(want)
        for name in want:
            assert rel_err(got[name], want[name]) < 1e-12, name

    @pytest.mark.parametrize("variant", list(Variant))
    def test_padded_batch_matches_batch_of_one(self, variant):
        rng = np.random.default_rng(44)
        params = init_params(45, 4, 5, variant)
        batch = ragged_batch(rng)
        probs, _ = forward_batch(batch, params)
        for inst, p in zip(batch, probs):
            assert rel_err(p, forward(inst, params)[0]) < 1e-12


class TestBatchedCell:
    def test_width_mismatch_names_instance(self):
        rng = np.random.default_rng(46)
        params = init_params(47, 4, 5, Variant.RAW)
        batch = ragged_batch(rng)
        bad = random_embedded(rng, d=6)
        with pytest.raises(ValueError, match="fixture.*width 6.*input_size 4"):
            forward(bad, params)
        with pytest.raises(ValueError, match="fixture.*width 6.*input_size 4"):
            forward_batch(batch + [bad], params)
        with pytest.raises(ValueError, match="width 6.*input_size 4"):
            encode(params.lstm, np.zeros((2, 6)), np.zeros(5), np.zeros(5))

    def test_backward_uses_up_the_cache(self):
        rng = np.random.default_rng(48)
        params = init_params(49, 4, 5, Variant.COMBINED)
        _, cache = forward(random_embedded(rng), params)
        backward(cache, 1)
        with pytest.raises(ValueError, match="already"):
            backward(cache, 1)

    def test_empty_batch_rejected(self):
        params = init_params(52, 4, 5, Variant.RAW)
        with pytest.raises(ValueError, match="^cannot run an empty batch$"):
            forward_batch([], params)
        with pytest.raises(ValueError, match="^nothing to evaluate$"):
            evaluate_model([], params)

    def test_gold_count_must_match_batch(self):
        rng = np.random.default_rng(50)
        params = init_params(51, 4, 5, Variant.RAW)
        _, cache = forward_batch(ragged_batch(rng), params)
        with pytest.raises(ValueError, match="gold labels"):
            backward_batch(cache, [1, 2])


def lstm_step(params, x, h, c):
    """One step of the cell: `encode` over a length-1 sequence."""
    _, h_new, c_new = encode(params, x[None], h, c)
    return h_new, c_new


def scalar_step(params, x, h0, c0):
    """One step of the cell, one multiply-add at a time."""
    w = gate_views(params)
    d, size = len(x), len(h0)

    def pre(gate, j):
        return (sum(w[f"w_x{gate}"][j, k] * x[k] for k in range(d))
                + sum(w[f"w_h{gate}"][j, k] * h0[k] for k in range(size))
                + w[f"b_{gate}"][j])
    c = [sigmoid(pre("f", j)) * c0[j]
         + sigmoid(pre("i", j)) * math.tanh(pre("g", j)) for j in range(size)]
    h = [sigmoid(pre("o", j)) * math.tanh(c[j]) for j in range(size)]
    return np.array(h), np.array(c)


class TestLstmStep:
    def test_zero_params_zero_state(self):
        params = LstmParams(np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        h, c = lstm_step(params, np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))

    def test_outputs_bounded(self):
        params = init_params(0, 6, 4, Variant.RAW).lstm
        rng = np.random.default_rng(1)
        h, c = np.zeros(4), np.zeros(4)
        for _ in range(20):
            h, c = lstm_step(params, rng.standard_normal(6) * 3, h, c)
            assert np.all(np.abs(h) < 1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        params = init_params(3, 3, 4, Variant.RAW).lstm
        x = rng.standard_normal(3)
        h0 = rng.standard_normal(4) * 0.1
        c0 = rng.standard_normal(4) * 0.1
        h, c = lstm_step(params, x, h0, c0)
        h_oracle, c_oracle = scalar_step(params, x, h0, c0)
        np.testing.assert_allclose(c, c_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, h_oracle, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = init_params(0, 3, 4, Variant.RAW).lstm
        with pytest.raises(ValueError, match="match"):
            lstm_step(params, np.zeros(5), np.zeros(4), np.zeros(4))


class TestEncode:
    def test_length_one_equals_single_step(self):
        rng = np.random.default_rng(3)
        params = init_params(4, 3, 5, Variant.RAW).lstm
        x = rng.standard_normal((1, 3))
        h0, c0 = rng.standard_normal(5) * 0.1, rng.standard_normal(5) * 0.1
        outputs, h_last, c_last = encode(params, x, h0, c0)
        h_step, c_step = scalar_step(params, x[0], h0, c0)
        assert outputs.shape == (1, 5)
        np.testing.assert_array_equal(outputs[0], h_last)
        np.testing.assert_allclose(h_last, h_step, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_last, c_step, rtol=0, atol=1e-12)

    def test_chained_equals_concatenated(self):
        rng = np.random.default_rng(4)
        params = init_params(5, 3, 4, Variant.RAW).lstm
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 3))
        zeros = np.zeros(4)
        _, h_mid, c_mid = encode(params, a, zeros, zeros)
        out_b, h_end, c_end = encode(params, b, h_mid, c_mid)
        out_full, h_full, c_full = encode(params, np.vstack([a, b]), zeros, zeros)
        np.testing.assert_allclose(h_end, h_full, atol=1e-15)
        np.testing.assert_allclose(c_end, c_full, atol=1e-15)
        np.testing.assert_allclose(out_b, out_full[3:], atol=1e-15)

    def test_state_seeding_is_observable(self):
        rng = np.random.default_rng(5)
        params = init_params(6, 3, 4, Variant.RAW).lstm
        seq = rng.standard_normal((2, 3))
        zeros = np.zeros(4)
        _, h_seeded, _ = encode(params, seq, rng.standard_normal(4), rng.standard_normal(4))
        _, h_zero, _ = encode(params, seq, zeros, zeros)
        assert not np.allclose(h_seeded, h_zero)

    def test_empty_sequence_rejected(self):
        params = init_params(0, 3, 4, Variant.RAW).lstm
        with pytest.raises(ValueError, match="empty"):
            encode(params, np.zeros((0, 3)), np.zeros(4), np.zeros(4))


class TestAttend:
    def test_singleton_softmax(self):
        rng = np.random.default_rng(6)
        ap = init_params(7, 3, 4, Variant.ATTENTION).attention
        outputs = rng.standard_normal((1, 4))
        h_e = rng.standard_normal(4)
        h_star, alpha = attend(ap, outputs, h_e)
        np.testing.assert_array_equal(alpha, [1.0])
        expected = np.tanh(ap.w_p @ outputs[0] + ap.w_x @ h_e)
        np.testing.assert_allclose(h_star, expected, atol=1e-15)

    def test_identical_rows_give_r_equal_h(self):
        rng = np.random.default_rng(7)
        ap = init_params(8, 3, 4, Variant.ATTENTION).attention
        row = rng.standard_normal(4)
        outputs = np.tile(row, (5, 1))
        h_e = rng.standard_normal(4)
        h_star, alpha = attend(ap, outputs, h_e)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        expected = np.tanh(ap.w_p @ row + ap.w_x @ h_e)
        np.testing.assert_allclose(h_star, expected, atol=1e-12)

    def test_weights_are_a_distribution(self):
        rng = np.random.default_rng(8)
        ap = init_params(9, 3, 6, Variant.ATTENTION).attention
        for _ in range(10):
            _, alpha = attend(ap, rng.standard_normal((7, 6)),
                              rng.standard_normal(6))
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(alpha > 0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(9)
        ap = init_params(10, 3, 3, Variant.ATTENTION).attention
        outputs = rng.standard_normal((3, 3))
        h_e = rng.standard_normal(3)
        h_star, alpha = attend(ap, outputs, h_e)
        m = [np.tanh(ap.w_y @ outputs[t] + ap.w_h @ h_e) for t in range(3)]
        scores = [float(ap.w @ m[t]) for t in range(3)]
        exp = [math.exp(s - max(scores)) for s in scores]
        alpha_o = [e / sum(exp) for e in exp]
        r = sum(alpha_o[t] * outputs[t] for t in range(3))
        h_star_o = np.tanh(ap.w_p @ r + ap.w_x @ h_e)
        np.testing.assert_allclose(alpha, alpha_o, atol=1e-12)
        np.testing.assert_allclose(h_star, h_star_o, atol=1e-12)


class TestForward:
    def test_zero_head_gives_uniform(self):
        rng = np.random.default_rng(10)
        params = init_params(11, 4, 5, Variant.COMBINED)
        params.head.w_out[...] = 0.0
        params.head.b_out[...] = 0.0
        probs, _ = forward(random_embedded(rng), params)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_probs_sum_to_one(self, variant):
        rng = np.random.default_rng(11)
        params = init_params(12, 4, 5, variant)
        for _ in range(10):
            probs, _ = forward(random_embedded(rng), params)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)

    def test_representation_widths(self):
        rng = np.random.default_rng(12)
        inst = random_embedded(rng)
        for variant, factor in [(Variant.RAW, 2), (Variant.ATTENTION, 2),
                                (Variant.COMBINED, 4)]:
            params = init_params(13, 4, 5, variant)
            _, cache = forward(inst, params)
            assert cache.o_vec.shape == (1, factor * 5)
            assert params.head.w_out.shape == (2, factor * 5)

    def test_raw_matches_seeded_encodes(self):
        rng = np.random.default_rng(13)
        inst = random_embedded(rng)
        params = init_params(14, 4, 5, Variant.RAW)
        _, cache = forward(inst, params)
        zeros = np.zeros(5)
        _, h_s, c_s = encode(params.lstm, inst.story, zeros, zeros)
        _, e1, _ = encode(params.lstm, inst.ending1, h_s, c_s)
        _, e2, _ = encode(params.lstm, inst.ending2, h_s, c_s)
        np.testing.assert_allclose(cache.o_vec[0], np.concatenate([e1, e2]),
                                   atol=1e-15)


class TestBackward:
    def test_loss_at_uniform_is_ln2(self):
        rng = np.random.default_rng(14)
        params = init_params(15, 4, 5, Variant.RAW)
        params.head.w_out[...] = 0.0
        probs, _ = forward(random_embedded(rng), params)
        assert cross_entropy(probs, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_logit_gradient_identity(self):
        rng = np.random.default_rng(15)
        params = init_params(16, 4, 5, Variant.RAW)
        inst = random_embedded(rng, gold=2)
        probs, cache = forward(inst, params)
        grads = backward(cache, 2)
        # d(loss)/d(b_out) is exactly p - onehot(gold)
        expected = probs.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grads["head.b_out"], expected, atol=1e-15)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("gold", [1, 2])
    def test_gradients_match_finite_differences(self, variant, gold):
        rng = np.random.default_rng(16)
        params = init_params(17, 4, 5, variant)
        inst = random_embedded(rng, gold=gold)
        _, cache = forward(inst, params)
        grads = backward(cache, gold)
        step = 1e-5
        for name, arr in tensors(params).items():
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = arr[idx]
                arr[idx] = saved + step
                plus = cross_entropy(forward(inst, params)[0], gold)
                arr[idx] = saved - step
                minus = cross_entropy(forward(inst, params)[0], gold)
                arr[idx] = saved
                numeric[idx] = (plus - minus) / (2 * step)
            assert rel_err(grads[name], numeric) < 1e-4, name

    def test_invalid_gold_rejected(self):
        rng = np.random.default_rng(17)
        params = init_params(18, 4, 5, Variant.RAW)
        _, cache = forward(random_embedded(rng), params)
        with pytest.raises(ValueError, match="gold"):
            backward(cache, 0)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = init_params(19, 3, 4, Variant.RAW)
        state = adam_init(params)
        before = {k: v.copy() for k, v in tensors(params).items()}
        grads = {k: np.full_like(v, 0.37) for k, v in tensors(params).items()}
        adam_update(params, state, grads, lr=0.01)
        for name, arr in tensors(params).items():
            delta = arr - before[name]
            expected = -0.01 * 0.37 / (0.37 + ADAM_EPS)
            np.testing.assert_allclose(delta, expected, rtol=1e-6)

    def test_zero_gradient_is_a_no_op(self):
        params = init_params(20, 3, 4, Variant.RAW)
        state = adam_init(params)
        before = {k: v.copy() for k, v in tensors(params).items()}
        zeros = {k: np.zeros_like(v) for k, v in tensors(params).items()}
        for _ in range(3):
            adam_update(params, state, zeros, lr=0.5)
        for name, arr in tensors(params).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_matches_plain_formula_bitwise(self):
        params = init_params(34, 3, 4, Variant.COMBINED)
        state = adam_init(params)
        want = {k: v.copy() for k, v in tensors(params).items()}
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v2 = {k: np.zeros_like(v) for k, v in want.items()}
        rng = np.random.default_rng(35)
        for t in range(1, 6):
            grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.uniform(-9, 1)
                     for k, v in want.items()}
            adam_update(params, state, grads, lr=0.01)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1.0 - 0.999) * g * g
                m_hat = m[k] / (1.0 - 0.9 ** t)
                v_hat = v2[k] / (1.0 - 0.999 ** t)
                want[k] -= 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name, arr in tensors(params).items():
            np.testing.assert_array_equal(arr, want[name])

    def test_trajectories_are_deterministic(self):
        runs = []
        for _ in range(2):
            params = init_params(21, 3, 4, Variant.RAW)
            state = adam_init(params)
            rng = np.random.default_rng(99)
            for _ in range(5):
                grads = {k: rng.standard_normal(v.shape)
                         for k, v in tensors(params).items()}
                adam_update(params, state, grads, lr=0.01)
            runs.append({k: v.copy() for k, v in tensors(params).items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])


class TestInitParams:
    def test_biases_are_zero(self):
        params = init_params(22, 5, 7, Variant.COMBINED)
        for name in ("lstm.b", "head.b_out"):
            arr = tensors(params)[name]
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_weights_within_xavier_bound(self):
        params = init_params(23, 5, 7, Variant.COMBINED)
        weights = {name: arr for name, arr in tensors(params).items()
                   if name not in ("lstm.b", "head.b_out")}
        # the fused LSTM tensors hold one Xavier draw per gate block
        for name in ("w_x", "w_h"):
            for gate in GATES:
                weights[f"lstm.{name}{gate}"] = gate_views(params.lstm)[f"{name}{gate}"]
            del weights[f"lstm.{name}"]
        for name, arr in weights.items():
            if arr.ndim == 2:
                fan_out, fan_in = arr.shape
            else:
                fan_in, fan_out = arr.shape[0], 1
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(arr).max() <= bound, name
        assert len(weights) == 2 * len(GATES) + 6

    def test_gate_blocks_drawn_in_turn(self):
        d, h = 3, 4
        params = init_params(29, d, h, Variant.RAW)
        rng = np.random.default_rng(29)
        w = gate_views(params.lstm)
        for gate in GATES:
            for name, shape in (("w_x", (h, d)), ("w_h", (h, h))):
                limit = np.sqrt(6.0 / sum(shape))
                np.testing.assert_array_equal(
                    w[f"{name}{gate}"], rng.uniform(-limit, limit, size=shape))

    def test_large_draw_variance(self):
        rng_params = init_params(24, 512, 512, Variant.RAW)
        w = gate_views(rng_params.lstm)["w_hi"]     # 512 x 512
        expected_var = 2.0 / (512 + 512)
        assert abs(w.var() - expected_var) < 0.1 * expected_var

    def test_attention_only_when_needed(self):
        assert init_params(0, 3, 4, Variant.RAW).attention is None
        assert init_params(0, 3, 4, Variant.ATTENTION).attention is not None
        assert init_params(0, 3, 4, Variant.COMBINED).attention is not None

    def test_same_seed_same_params(self):
        a = init_params(25, 4, 5, Variant.COMBINED)
        b = init_params(25, 4, 5, Variant.COMBINED)
        for name in tensors(a):
            np.testing.assert_array_equal(tensors(a)[name], tensors(b)[name])


class TestTraining:
    def test_overfits_marker_signal(self):
        train = make_synthetic(20, 8, seed=100)
        config = TrainConfig(hidden_size=16, batch_size=5, epochs=60,
                             learning_rate=0.001, seed=0, variant=Variant.RAW)
        result = train_model(train, train, config)
        assert result.best_dev_accuracy == 1.0

    def test_bitwise_deterministic(self):
        train = make_synthetic(12, 6, seed=200)
        config = TrainConfig(hidden_size=8, batch_size=4, epochs=3,
                             learning_rate=0.001, seed=5, variant=Variant.COMBINED)
        a = train_model(train, train, config)
        b = train_model(train, train, config)
        assert a.epoch_dev_accuracies == b.epoch_dev_accuracies
        for name in tensors(a.params):
            np.testing.assert_array_equal(tensors(a.params)[name],
                                          tensors(b.params)[name])

    def test_best_epoch_ties_resolve_earlier(self):
        train = make_synthetic(8, 6, seed=300)
        config = TrainConfig(hidden_size=8, batch_size=4, epochs=5,
                             learning_rate=0.001, seed=1, variant=Variant.RAW)
        result = train_model(train, train, config)
        accs = result.epoch_dev_accuracies
        assert accs[result.best_epoch - 1] == result.best_dev_accuracy
        assert all(a < result.best_dev_accuracy
                   for a in accs[:result.best_epoch - 1])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(hidden_size=0, batch_size=1, epochs=1,
                        learning_rate=0.001, seed=0, variant=Variant.RAW)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, bad):
        # a nan rate passed `<= 0`, and one Adam step then left non-finite
        # weights that load_checkpoint refuses
        with pytest.raises(ValueError, match=f"learning_rate must be finite, "
                                             f"got {bad}$"):
            TrainConfig(hidden_size=4, batch_size=1, epochs=1,
                        learning_rate=bad, seed=0, variant=Variant.RAW)

    def test_empty_sets_rejected(self):
        config = TrainConfig(hidden_size=4, batch_size=2, epochs=1,
                             learning_rate=0.01, seed=0, variant=Variant.RAW)
        with pytest.raises(ValueError, match="nonempty"):
            train_model([], [], config)

    def test_epoch_train_losses(self):
        train = make_synthetic(10, 6, seed=800)
        config = TrainConfig(hidden_size=8, batch_size=10, epochs=1,
                             learning_rate=0.001, seed=2, variant=Variant.COMBINED)
        result = train_model(train, train, config)
        # one batch: the loss is taken before the only update
        params = init_params(2, 6, 8, Variant.COMBINED)
        want = np.mean([cross_entropy(forward(e, params)[0], e.gold)
                        for e in train])
        assert result.epoch_train_losses == pytest.approx((want,), rel=1e-12)

        config = TrainConfig(hidden_size=16, batch_size=5, epochs=30,
                             learning_rate=0.001, seed=0, variant=Variant.RAW)
        marked = make_synthetic(20, 8, seed=100)
        losses = train_model(marked, marked, config).epoch_train_losses
        assert len(losses) == 30
        assert losses[-1] < 0.5 * losses[0]

    def test_epoch_peak_holds_one_model_copy_and_one_gradient_set(self):
        # The peak of a one-epoch run over two minibatches may hold the
        # parameters, Adam's two moment sets and one minibatch step (its
        # cache, gradients and transients), but no idle parameter copy and
        # no gradients left over from the previous minibatch.
        d, h = 8, 64
        train = make_synthetic(8, d, seed=7)
        config = TrainConfig(hidden_size=h, batch_size=4, epochs=1,
                             learning_rate=0.001, seed=0, variant=Variant.COMBINED)
        params = init_params(0, d, h, Variant.COMBINED)
        param_bytes = sum(a.nbytes for a in tensors(params).values())

        def traced_peak(run):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def one_step():
            _, cache = forward_batch(train[:4], params)
            backward_batch(cache, [inst.gold for inst in train[:4]])

        step = traced_peak(one_step)
        peak = traced_peak(lambda: train_model(train, train[:4], config))
        assert peak <= 3 * param_bytes + step + param_bytes / 2, (
            (peak - step) / param_bytes)

    def test_non_finite_loss_stops_training(self):
        train = make_synthetic(6, 6, seed=900)
        broken = train[4]
        train[4] = EmbeddedInstance(broken.id, np.full_like(broken.story, np.nan),
                                    broken.ending1, broken.ending2, broken.gold)
        config = TrainConfig(hidden_size=4, batch_size=6, epochs=2,
                             learning_rate=0.01, seed=0, variant=Variant.RAW)
        with pytest.raises(ValueError, match="epoch 1, batch 1: .*not finite"):
            train_model(train, train, config)

    def test_non_finite_gradient_stops_training(self):
        train = make_synthetic(4, 6, seed=901)
        config = TrainConfig(hidden_size=4, batch_size=2, epochs=1,
                             learning_rate=0.01, seed=0, variant=Variant.RAW)
        # an infinite input saturates every gate: the forward pass and the
        # loss stay finite, the input-weight gradient does not
        story = train[0].story.copy()
        story[0, 0] = np.inf
        saturated = EmbeddedInstance("inf", story, train[0].ending1,
                                     train[0].ending2, 1)
        params = init_params(0, 6, 4, Variant.RAW)
        assert np.isfinite(cross_entropy(forward(saturated, params)[0], 1))
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"epoch 1, batch \d: .*not finite \(loss \d"):
            train_model(train[:2] + [saturated] * 2, train, config)


class TestEmbedInstance:
    def test_empty_sequence_is_one_oov_row(self, table):
        np.testing.assert_array_equal(embed_tokens([], table),
                                      np.zeros((1, table.dim)))
        np.testing.assert_array_equal(embed_tokens([], table),
                                      embed_tokens(["zzqx0"], table))

    def test_empty_ending_predicts(self, table):
        from clozebase.features import FeatureConfig, extract
        inst = ClozeInstance(
            id="x", context=("dog walked.", "cat.", "beach.", "ocean."),
            ending1="pizza.", ending2="", gold=1)
        embedded = embed_instance(inst, table)
        assert embedded.ending2.shape == (1, table.dim)
        params = init_params(30, table.dim, 4, Variant.COMBINED)
        label, probs = predict_neural(embedded, params)
        assert label in (1, 2) and np.all(np.isfinite(probs))
        vector = extract(inst, table, None, FeatureConfig.ENDINGS_ONLY)
        assert np.all(np.isfinite(vector.values))

    def test_oov_rows_are_zero(self, table):
        from clozebase.annotate import tokenize
        inst = ClozeInstance(
            id="x", context=("dog zzqx0.", "cat.", "beach.", "ocean."),
            ending1="pizza zzqx1.", ending2="house.", gold=1)
        embedded = embed_instance(inst, table)
        n_story = sum(len(tokenize(s)) for s in inst.context)
        assert embedded.story.shape == (n_story, table.dim)
        np.testing.assert_array_equal(embedded.ending1[1], np.zeros(table.dim))

    def test_truncation(self, table):
        long_sentence = " ".join(["dog"] * 200) + "."
        inst = ClozeInstance(
            id="x", context=(long_sentence, "cat.", "beach.", "ocean."),
            ending1="pizza.", ending2="house.", gold=1)
        embedded = embed_instance(inst, table)
        assert embedded.story.shape == (128, table.dim)

    def test_prediction_and_evaluation(self):
        data = make_synthetic(10, 6, seed=700)
        params = init_params(26, 6, 8, Variant.RAW)
        labels = [predict_neural(inst, params)[0] for inst in data]
        assert set(labels) <= {1, 2}
        acc = evaluate_model(data, params)
        assert 0.0 <= acc <= 1.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(18)
        for variant in Variant:
            params = init_params(27, 4, 5, variant)
            path = tmp_path / f"model-{variant.value}.npz"
            save_checkpoint(path, params)
            loaded = load_checkpoint(path)
            assert loaded.variant is variant
            for name in tensors(params):
                np.testing.assert_array_equal(tensors(loaded)[name],
                                              tensors(params)[name])
            inst = random_embedded(rng)
            np.testing.assert_array_equal(forward(inst, params)[0],
                                          forward(inst, loaded)[0])

    def test_clone_is_independent(self, monkeypatch):
        # the best parameters train_model returns share no array with its
        # live training state
        live = []

        def recording_init(*args):
            live.append(init_params(*args))
            return live[-1]
        monkeypatch.setattr(neural, "init_params", recording_init)
        config = TrainConfig(hidden_size=5, batch_size=2, epochs=1,
                             learning_rate=0.01, seed=28, variant=Variant.RAW)
        data = make_synthetic(4, 4, seed=28)
        best = train_model(data, data, config).params
        assert len(live) == 1 and best is not live[0]
        for name, arr in tensors(best).items():
            assert not np.shares_memory(arr, tensors(live[0])[name]), name
            np.testing.assert_array_equal(arr, tensors(live[0])[name])

    @pytest.mark.parametrize("variant", list(Variant))
    def test_version_1_per_gate_archive_loads(self, tmp_path, variant):
        params = init_params(31, 4, 5, variant)
        arrays = {name: arr for name, arr in tensors(params).items()
                  if not name.startswith("lstm.")}
        for name, arr in gate_views(params.lstm).items():
            arrays[f"lstm.{name}"] = arr.copy()
        meta = {"version": 1, "variant": variant.value, "input_size": 4,
                "hidden_size": 5}
        path = tmp_path / "v1.npz"
        with open(path, "wb") as handle:
            np.savez(handle, __meta__=np.asarray(json.dumps(meta)), **arrays)
        loaded = load_checkpoint(path)
        for name in tensors(params):
            np.testing.assert_array_equal(tensors(loaded)[name],
                                          tensors(params)[name])
        inst = random_embedded(np.random.default_rng(32))
        np.testing.assert_array_equal(predict_neural(inst, loaded)[1],
                                      predict_neural(inst, params)[1])

    def test_version_1_missing_gate_rejected(self, tmp_path):
        params = init_params(33, 4, 5, Variant.RAW)
        arrays = {name: arr for name, arr in tensors(params).items()
                  if not name.startswith("lstm.")}
        for name, arr in gate_views(params.lstm).items():
            if name != "w_hg":
                arrays[f"lstm.{name}"] = arr
        meta = {"version": 1, "variant": "raw", "input_size": 4,
                "hidden_size": 5}
        path = tmp_path / "v1.npz"
        with open(path, "wb") as handle:
            np.savez(handle, __meta__=np.asarray(json.dumps(meta)), **arrays)
        with pytest.raises(ParseError, match="lstm.w_hg"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version, d, tensor, expected", [
        (CHECKPOINT_VERSION, 4, "lstm.w_x", "(20, 4), expected (200000, 4)"),
        (1, 4, "lstm.w_xi", "(5, 4), expected (50000, 4)"),
        # a stored W_x of (4h x 1) fits the sizes, so W_h must be checked
        (CHECKPOINT_VERSION, 1, "lstm.w_h",
         "(20, 5), expected (200000, 50000)"),
        (1, 1, "lstm.w_hi", "(5, 5), expected (50000, 50000)"),
    ])
    def test_sizes_are_checked_before_allocating(self, tmp_path, monkeypatch,
                                                 version, d, tensor, expected):
        # hidden_size 50000 would make init_params fill 80 GB for W_h alone
        h = 50000
        params = init_params(37, 4, 5, Variant.RAW)
        arrays = dict(tensors(params))
        if version == 1:
            arrays = {name: arr for name, arr in arrays.items()
                      if not name.startswith("lstm.")}
            arrays.update((f"lstm.{name}", arr.copy())
                          for name, arr in gate_views(params.lstm).items())
        if d == 1:
            rows = h if version == 1 else len(GATES) * h
            arrays[tensor.replace("w_h", "w_x")] = np.zeros((rows, 1))
        meta = {"version": version, "variant": "raw", "input_size": d,
                "hidden_size": h}
        path = tmp_path / "big.npz"
        with open(path, "wb") as handle:
            np.savez(handle, __meta__=np.asarray(json.dumps(meta)), **arrays)

        def no_allocation(*args):
            raise AssertionError("init_params was called")
        monkeypatch.setattr(neural, "init_params", no_allocation)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: tensor '{tensor}' has shape "
                                  f"{expected}")

    @pytest.mark.parametrize("sizes", [(0, 5), (4, -5)])
    def test_non_positive_sizes_rejected(self, tmp_path, monkeypatch, sizes):
        path = tmp_path / "zero.npz"
        meta = {"version": CHECKPOINT_VERSION, "variant": "raw",
                "input_size": sizes[0], "hidden_size": sizes[1]}
        np.savez(path, __meta__=np.asarray(json.dumps(meta)))

        def no_allocation(*args):
            raise AssertionError("init_params was called")
        monkeypatch.setattr(neural, "init_params", no_allocation)
        with pytest.raises(ParseError, match=(
                f"^{re.escape(str(path))}: bad checkpoint metadata "
                rf"\(input_size {sizes[0]} and hidden_size {sizes[1]} must "
                r"be positive\)$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta, reason", [
        ('{"version": 2,', "not JSON"),
        ("[1, 2]", "not a JSON object"),
        (np.array([{"version": 2}], dtype=object), "not JSON"),
        ('{"version": 2, "variant": "raw", "input_size": 4, '
         '"hidden_size": null}', "TypeError: int() argument"),
    ])
    def test_malformed_metadata_names_the_path(self, tmp_path, meta, reason):
        path = tmp_path / "meta.npz"
        with open(path, "wb") as handle:
            np.savez(handle, __meta__=np.asarray(meta))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: bad checkpoint metadata "
                                          f"({reason}")

    @pytest.mark.parametrize("version", [3, "2"])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "v3.npz"
        save_checkpoint(path, init_params(53, 4, 5, Variant.RAW))
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["__meta__"]))
        arrays["__meta__"] = np.asarray(json.dumps({**meta, "version": version}))
        np.savez(path, **arrays)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           f"unsupported checkpoint version {version!r}$"):
            load_checkpoint(path)

    def test_version_2_0_npy_header_loads(self, tmp_path):
        params = init_params(54, 4, 5, Variant.COMBINED)
        ok, path = tmp_path / "ok.npz", tmp_path / "npy2.npz"
        save_checkpoint(ok, params)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, params.lstm.w_x, version=(2, 0))
        assert buffer.getvalue()[6:8] == b"\x02\x00"
        with zipfile.ZipFile(ok) as source, zipfile.ZipFile(path, "w") as out:
            for name in source.namelist():
                out.writestr(name, buffer.getvalue() if name == "lstm.w_x.npy"
                             else source.read(name))
        loaded = load_checkpoint(path)
        for name, arr in tensors(params).items():
            np.testing.assert_array_equal(tensors(loaded)[name], arr,
                                          err_msg=name)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_names_the_tensor(self, tmp_path, bad):
        params = init_params(34, 4, 5, Variant.COMBINED)
        params.attention.w_y[1, 2] = bad
        path = tmp_path / "bad.npz"
        save_checkpoint(path, params)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: tensor "
                           "'att.w_y' has non-finite values$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad, dtype", [
        (np.array(["a", "b"]), "<U1"),
        (np.array([0.5, None], dtype=object), "object"),
        (np.array([1 + 2j, 3 - 1j]), "complex128"),
    ])
    def test_tensor_of_non_real_values_names_the_tensor(self, tmp_path, bad,
                                                        dtype):
        path = tmp_path / "bad.npz"
        save_checkpoint(path, init_params(35, 4, 5, Variant.COMBINED))
        with np.load(path) as data:
            arrays = dict(data)
        arrays["head.b_out"] = bad
        np.savez(path, **arrays)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: tensor "
                           f"'head.b_out' holds {dtype} values, not real "
                           "numbers$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensor, shape", [
        ("lstm.w_x", (20, 3)),          # checked before init_params
        ("head.w_out", (2, 11)),        # checked before any data is read
    ])
    def test_shape_is_read_from_the_header(self, tmp_path, monkeypatch,
                                           tensor, shape):
        path = tmp_path / "shape.npz"
        save_checkpoint(path, init_params(38, 4, 5, Variant.RAW))
        with np.load(path) as data:
            arrays = dict(data)
        arrays[tensor] = np.zeros(shape)
        np.savez(path, **arrays)
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording_getitem(archive, key):
            read.append(key)
            return getitem(archive, key)
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            recording_getitem)
        with pytest.raises(ParseError, match=re.escape(
                f"'{tensor}' has shape {shape}, expected")):
            load_checkpoint(path)
        assert read == ["__meta__"]

    def test_each_tensor_is_read_once(self, tmp_path, monkeypatch):
        params = init_params(39, 4, 5, Variant.COMBINED)
        path = tmp_path / "once.npz"
        save_checkpoint(path, params)
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording_getitem(archive, key):
            read.append(key)
            return getitem(archive, key)
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            recording_getitem)
        load_checkpoint(path)
        assert sorted(read) == sorted(["__meta__", *tensors(params)])

    @pytest.mark.parametrize("cut, reason", [
        (None, "the magic string is not correct"),
        (-8, "its header needs more than the 8 bytes stored"),
    ])
    def test_malformed_member_names_the_tensor(self, tmp_path, cut, reason):
        payload = b"not an array"
        if cut is not None:
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.zeros(2))
            payload = buffer.getvalue()[:cut]
        ok, path = tmp_path / "ok.npz", tmp_path / "bad.npz"
        save_checkpoint(ok, init_params(40, 4, 5, Variant.RAW))
        with zipfile.ZipFile(ok) as source, zipfile.ZipFile(path, "w") as out:
            for name in source.namelist():
                out.writestr(name, payload if name == "head.b_out.npy"
                             else source.read(name))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           f"tensor 'head.b_out' is unreadable \\({reason}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensor", ["head.b_out", "lstm.w_x"])
    def test_corrupt_tensor_data_names_the_tensor(self, tmp_path, tensor):
        # the CRC fails while reading head.b_out's header, which comes in
        # the same read as its data, and while reading lstm.w_x's data
        params = init_params(41, 40, 30, Variant.RAW)
        params.head.b_out[:] = [1.25, -3.5]     # not the zeros of lstm.b
        path = tmp_path / "crc.npz"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())     # np.savez stores, not deflates
        stored = tensors(params)[tensor].tobytes()
        raw[raw.find(stored) + len(stored) - 1] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           f"tensor '{tensor}' is unreadable \\(Bad CRC"):
            load_checkpoint(path)

    def test_integer_tensor_loads_as_floats(self, tmp_path):
        params = init_params(36, 4, 5, Variant.RAW)
        path = tmp_path / "int.npz"
        save_checkpoint(path, params)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["head.b_out"] = np.array([3, -1])
        np.savez(path, **arrays)
        loaded = load_checkpoint(path)
        assert loaded.head.b_out.dtype == np.float64
        assert loaded.head.b_out.tolist() == [3.0, -1.0]

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ParseError, match="checkpoint"):
            load_checkpoint(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cut", [None, 200, 1000])
    def test_unreadable_archive_closes_the_file(self, tmp_path, cut):
        path = tmp_path / "model.npz"
        if cut is None:
            path.write_bytes(b"PK\x03\x04 not really a zip")
        else:
            save_checkpoint(path, init_params(41, 4, 5, Variant.RAW))
            path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not "
                           r"an LSTM checkpoint \(no .npz archive\)$"):
            load_checkpoint(path)
