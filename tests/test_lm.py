import numpy as np
import pytest

from planact.errors import ContractError, NumericError, PromptTooLongError
from planact.lm import LmConfig, MicroLm
from planact.nn import TransformerBlock, set_trainable
from planact.sampling import GenerationConfig, generate, sample_token
from planact.tensor import Tensor, cross_entropy
from planact.vocab import EOS, Vocabulary, tokenize_prefix

VOCAB = Vocabulary.build(["go to the red block", "open the drawer now", "a b c d e"])


def make_model(rng, prefix_len=3):
    cfg = LmConfig(vocab_size=len(VOCAB), dim=16, blocks=2, heads=2, context=64,
                   prefix_len=prefix_len)
    return MicroLm(rng, cfg)


@pytest.fixture
def model(rng):
    return make_model(rng)


class TestLmForward:
    def test_plain_causal_logits(self, rng):
        ids = tokenize_prefix("go to the red block", VOCAB)
        logits = make_model(rng, prefix_len=0).forward(ids, soft_prompt=None)
        assert logits.shape == (len(ids), len(VOCAB))

    def test_text_logit_rows_unchanged_by_soft_prompt(self, model, rng):
        ids = tokenize_prefix("open the drawer", VOCAB)
        plain = model.forward(ids)
        prompted = model.forward(ids, soft_prompt=Tensor(np.zeros((4, 16))))
        assert plain.shape == prompted.shape == (len(ids), len(VOCAB))
        # zero prompt rows still act through attention, so values may differ
        assert not np.allclose(plain.data, prompted.data)

    def test_causality_bitwise(self, model, rng):
        prompt = Tensor(rng.standard_normal((2, 16)))
        la = model.forward([1, 4, 5, 6, 7], soft_prompt=prompt)
        lb = model.forward([1, 4, 5, 9, 8], soft_prompt=prompt)
        assert la.data[:3].tobytes() == lb.data[:3].tobytes()

    def test_context_overflow(self, model):
        with pytest.raises(ContractError):
            model.forward(list(range(4)) * 16, soft_prompt=Tensor(np.zeros((4, 16))))

    def test_empty_sequence_rejected(self, model):
        with pytest.raises(ContractError):
            model.forward([])

    def test_every_position_sees_adapters(self, model):
        # gradient from the first position's logits must reach every block's adapter
        logits = model.forward([4, 5, 6])
        loss = cross_entropy(logits[0:1, :], [1])
        loss.backward()
        for adapter in model.adapters:
            assert adapter.grad is not None
            assert np.any(adapter.grad != 0.0)

    def test_adapter_only_training(self, model, rng):
        params = model.named_parameters()
        set_trainable(params, False)
        set_trainable({k: v for k, v in params.items() if "adapters" in k}, True)
        logits = model.forward([4, 5, 6, 7])
        cross_entropy(logits, [5, 6, 7, EOS]).backward()
        for name, p in params.items():
            if "adapters" in name:
                assert p.grad is not None, name
            else:
                assert p.grad is None, name

    @pytest.mark.parametrize(
        "field, value", [("prefix_len", -1), ("prefix_len", 256), ("blocks", 0), ("context", 0)]
    )
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            LmConfig(vocab_size=len(VOCAB), **{field: value})

    @pytest.mark.parametrize(
        "field, message",
        [
            ("heads", "heads must be at least 1, got 0"),
            ("dim", "dim must be at least 1, got 0"),
            ("vocab_size", "vocab_size must be at least 1, got 0"),
        ],
        ids=["heads", "dim", "vocab_size"],
    )
    def test_zero_width_fails_by_name(self, rng, field, message):
        cfg = LmConfig(vocab_size=len(VOCAB), dim=16, heads=2, context=8)
        with pytest.raises(ContractError, match=message):
            MicroLm(rng, LmConfig(**{**vars(cfg), field: 0}))

    @pytest.mark.parametrize(
        "field, value", [("dim", 16.0), ("heads", 2.5), ("context", True), ("prefix_len", 1.0)]
    )
    def test_integer_field_must_be_an_integer(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be an integer, got {value!r}"):
            LmConfig(vocab_size=len(VOCAB), **{field: value})

    def test_feed_forward_width_cannot_be_set(self):
        with pytest.raises(TypeError, match="ff_mult"):
            LmConfig(vocab_size=len(VOCAB), ff_mult=LmConfig.ff_mult)

    def test_soft_prompt_gradient_flows_upstream(self, model):
        prompt = Tensor(np.zeros((3, 16)), requires_grad=True)
        logits = model.forward([4, 5], soft_prompt=prompt)
        cross_entropy(logits, [5, EOS]).backward()
        assert prompt.grad is not None and np.any(prompt.grad != 0.0)


class TestSampler:
    def test_greedy_deterministic(self, model):
        ids = tokenize_prefix("go to the", VOCAB)
        cfg = GenerationConfig(temperature=0.0, samples_per_prompt=2, max_new_tokens=8, seed=3)
        outs = generate(model, ids, None, cfg)
        assert outs[0] == outs[1]

    def test_exactly_five_candidates(self, model):
        cfg = GenerationConfig(samples_per_prompt=5, max_new_tokens=4, seed=1)
        outs = generate(model, [4, 5], None, cfg)
        assert len(outs) == 5

    def test_stops_at_eos(self, model):
        cfg = GenerationConfig(temperature=0.0, samples_per_prompt=1, max_new_tokens=30)
        (out,) = generate(model, [4, 5, 6], None, cfg)
        assert len(out) <= 30
        if EOS in out:
            assert out[-1] == EOS

    def test_tiny_top_p_equals_greedy(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(6) * 2.0
        greedy = int(np.argmax(logits))
        for seed in range(20):
            assert sample_token(logits, 1.0, 1e-9, np.random.default_rng(seed)) == greedy

    def test_full_distribution_statistics(self):
        # 4-token vocabulary, temperature 1, top_p 1: the top token's frequency
        # over 10k draws stays within 3 sigma of its exact softmax probability
        logits = np.array([1.0, 0.3, -0.5, -1.2])
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        p_top = probs.max()
        top = int(np.argmax(probs))
        rng = np.random.default_rng(42)
        n = 10_000
        hits = sum(sample_token(logits, 1.0, 1.0, rng) == top for _ in range(n))
        sigma = np.sqrt(p_top * (1 - p_top) / n)
        assert abs(hits / n - p_top) <= 3 * sigma

    def test_nucleus_restricts_support(self):
        # top_p just above the top probability keeps exactly the two best tokens
        probs = np.array([0.6, 0.3, 0.08, 0.02])
        logits = np.log(probs)
        rng = np.random.default_rng(5)
        seen = {sample_token(logits, 1.0, 0.65, rng) for _ in range(300)}
        assert seen == {0, 1}

    def test_sampled_ids_pinned(self, model):
        # ids as sampled when decoding still recorded an autodiff graph; a faster
        # decode that moves any of them changes the model's output
        cfg = GenerationConfig(temperature=1.0, top_p=0.95, samples_per_prompt=3,
                               max_new_tokens=12, seed=5)
        assert generate(model, [4, 5, 6, 7, 8, 9, 10, 11], None, cfg) == [
            [6, 14, 14, 5, 8, 8, 10, 13, 5, 15, 10, 10],
            [13, 7, 14, EOS],
            [13, 8, 13, 5, 1, 1, 5, 8, 8, 4, 10, 9],
        ]

    @pytest.mark.parametrize("top_p", [1e-9, 0.95, 1.0])
    def test_draw_equals_generator_choice(self, top_p):
        logit_rng = np.random.default_rng(7)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            logits = logit_rng.standard_normal(20) * 2.0
            want = choice_reference(logits, 0.9, top_p, theirs)
            assert sample_token(logits, 0.9, top_p, ours) == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_nan_or_inf_logit_rejected(self, bad, temperature):
        logits = np.array([2.0, bad, -1.0])
        with pytest.raises(NumericError, match="finite"):
            sample_token(logits, temperature, 0.95, np.random.default_rng(0))

    def test_minus_inf_logit_never_drawn(self):
        rng = np.random.default_rng(0)
        logits = np.array([0.0, -np.inf, 0.5])
        assert {sample_token(logits, 1.0, 1.0, rng) for _ in range(100)} == {0, 2}

    @pytest.mark.parametrize("field, value", [
        ("temperature", float("nan")), ("temperature", float("inf")), ("seed", -1),
        ("seed", 1.5), ("max_new_tokens", 2.5), ("samples_per_prompt", "3"),
        ("samples_per_prompt", True), ("seed", True),
    ])
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ContractError, match=field):
            GenerationConfig(**{field: value})

    def test_invalid_config_rejected(self):
        with pytest.raises(ContractError):
            GenerationConfig(temperature=-0.1)
        with pytest.raises(ContractError):
            GenerationConfig(top_p=0.0)
        with pytest.raises(ContractError):
            GenerationConfig(top_p=1.2)
        with pytest.raises(ContractError):
            GenerationConfig(max_new_tokens=0)


class TestGenerateContext:
    """``generate`` checks up front that its longest forward fits the context: adapter
    rows + soft prompt rows + prompt ids + max_new_tokens - 1 fed-back tokens."""

    PROMPT = [4 + i % (len(VOCAB) - 4) for i in range(20)]

    @pytest.fixture
    def model(self, rng):
        cfg = LmConfig(vocab_size=len(VOCAB), dim=16, blocks=2, heads=2, context=32,
                       prefix_len=4)
        model = MicroLm(rng, cfg)
        model.out.b.data[EOS] = -1e9  # never stop early, so every sample decodes in full
        return model

    @pytest.mark.parametrize("soft_rows", [0, 3])
    def test_longest_fitting_request_decodes_in_full(self, model, rng, soft_rows):
        prompt = self.PROMPT[soft_rows:]
        soft = Tensor(rng.standard_normal((soft_rows, 16))) if soft_rows else None
        # 4 adapter rows + 20 soft prompt and prompt rows + 8 fed-back tokens = context 32
        cfg = GenerationConfig(samples_per_prompt=2, max_new_tokens=9, seed=1)
        assert [len(s) for s in generate(model, prompt, soft, cfg)] == [9, 9]

    @pytest.mark.parametrize("soft_rows", [0, 3])
    def test_one_token_more_rejected_naming_the_lengths(self, model, rng, soft_rows):
        prompt = self.PROMPT[soft_rows:]
        soft = Tensor(rng.standard_normal((soft_rows, 16))) if soft_rows else None
        cfg = GenerationConfig(samples_per_prompt=2, max_new_tokens=10, seed=1)
        message = (f"4 adapter rows \\+ {soft_rows} soft prompt rows \\+ {20 - soft_rows} "
                   "prompt ids \\+ 10 new tokens less the last exceed context 32")
        with pytest.raises(PromptTooLongError, match=message):
            generate(model, prompt, soft, cfg)

    def test_rejected_request_runs_no_forward(self, model, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "forward", lambda *args, **kwargs: calls.append(args))
        cfg = GenerationConfig(max_new_tokens=12)
        with pytest.raises(ContractError):  # PromptTooLongError is a ContractError
            generate(model, self.PROMPT, None, cfg)
        assert calls == []


def choice_reference(logits, temperature, top_p, rng):
    """Nucleus sampling as it drew before: ``rng.choice`` over the kept ids."""
    scaled = logits / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cutoff = min(int(np.searchsorted(cum, top_p)), len(order) - 1)
    kept = order[: cutoff + 1]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()
    return int(rng.choice(kept, p=kept_probs))


def reference_generate(model, prompt_ids, soft_prompt, cfg):
    """Uncached decoding: every step re-runs the prompt and all tokens so far."""
    rng = np.random.default_rng(cfg.seed)
    results = []
    for _ in range(cfg.samples_per_prompt):
        ids = list(prompt_ids)
        new = []
        for _ in range(cfg.max_new_tokens):
            logits = model.forward(ids, soft_prompt)
            token = sample_token(logits.data[-1], cfg.temperature, cfg.top_p, rng)
            new.append(token)
            ids.append(token)
            if token == EOS:
                break
        results.append(new)
    return results


class TestKvCache:
    IDS = [4, 5, 6, 7, 8, 9, 10, 11]

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_prefill_then_single_steps_match_full_forward(self, rng, soft, adapters):
        model = make_model(rng, prefix_len=3 if adapters else 0)
        prompt = Tensor(rng.standard_normal((3, 16))) if soft else None
        full = model.forward(self.IDS, prompt).data
        cache = model.new_cache()
        rows = [model.forward(self.IDS[:3], prompt, cache=cache).data]
        for token in self.IDS[3:]:
            rows.append(model.forward([token], None, cache=cache).data)
        assert [r.shape[0] for r in rows] == [3] + [1] * (len(self.IDS) - 3)
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0.0, atol=1e-12)
        assert len(cache) == len(self.IDS) + (3 if soft else 0)

    def test_multi_token_steps_match_full_forward(self, model, rng):
        prompt = Tensor(rng.standard_normal((2, 16)))
        full = model.forward(self.IDS, prompt).data
        cache = model.new_cache()
        rows = [model.forward(self.IDS[:2], prompt, cache=cache).data,
                model.forward(self.IDS[2:5], None, cache=cache).data,
                model.forward(self.IDS[5:], None, cache=cache).data]
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("soft", [0, 3])
    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_mask_covers_adapter_cached_and_new_rows(self, rng, monkeypatch, soft, prefix_len):
        def concatenated(rows, soft_rows, cached):
            # every cached row visible, then the new rows' causal pattern
            cols = np.arange(rows)
            new = (cols[None, :] <= cols[:, None]) | (cols < soft_rows)
            return np.concatenate([np.ones((rows, cached), dtype=bool), new], axis=1)

        model = make_model(rng, prefix_len)
        prompt = Tensor(rng.standard_normal((soft, 16))) if soft else None
        seen = []
        call = TransformerBlock.__call__

        def record(block, x, self_mask=None, self_cache=None):
            seen.append((self_mask, len(self_cache)))
            return call(block, x, self_mask, self_cache)

        monkeypatch.setattr(TransformerBlock, "__call__", record)
        cache = model.new_cache()
        model.forward(self.IDS[:3], prompt, cache=cache)
        model.forward(self.IDS[3:5], None, cache=cache)
        model.forward(self.IDS[5:6], None, cache=cache)
        expected = [
            (concatenated(soft + 3, soft, prefix_len), prefix_len),
            (concatenated(2, 0, prefix_len + soft + 3), prefix_len + soft + 3),
            (None, prefix_len + soft + 5),
        ]
        per_block = [e for e in expected for _ in model.blocks]
        assert len(seen) == len(per_block)
        for (mask, cached), (want, want_cached) in zip(seen, per_block):
            assert cached == want_cached
            if want is None:
                assert mask is None
            else:
                np.testing.assert_array_equal(mask, want)

    def test_copies_decode_independently(self, model):
        cache = model.new_cache()
        model.forward(self.IDS[:4], cache=cache)
        twin = cache.copy()
        model.forward([9, 9], cache=cache)
        step = model.forward(self.IDS[4:5], cache=twin).data
        assert len(twin) == 5 and len(cache) == 6
        np.testing.assert_allclose(step, model.forward(self.IDS[:5]).data[-1:], rtol=0.0,
                                   atol=1e-12)

    def test_one_token_step_copies_no_history(self, model, monkeypatch):
        cache = model.new_cache()
        model.forward(self.IDS[:4], cache=cache)
        before = [(c.k.data, c.v.data) for c in cache.blocks]
        joins = []
        concatenate = np.concatenate

        def counted(*args, **kwargs):
            joins.append(args)
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        model.forward(self.IDS[4:5], cache=cache)
        assert joins == []
        for (k, v), block_cache in zip(before, cache.blocks):
            for old, new in ((k, block_cache.k.data), (v, block_cache.v.data)):
                assert new.shape[0] == old.shape[0] + 1
                assert new.base is old.base  # the same storage, grown in place
                assert new[:-1].tobytes() == old.tobytes()

    def test_copy_has_its_own_storage(self, model):
        cache = model.new_cache()
        model.forward(self.IDS[:4], cache=cache)
        twin = cache.copy()
        model.forward(self.IDS[4:5], cache=cache)
        model.forward([9], cache=twin)
        for mine, theirs in zip(cache.blocks, twin.blocks):
            assert not np.shares_memory(mine.k.data, theirs.k.data)
            assert not np.shares_memory(mine.v.data, theirs.v.data)
            assert mine.k.data[:-1].tobytes() == theirs.k.data[:-1].tobytes()

    def test_cached_rows_carry_no_graph(self, model):
        cache = model.new_cache()
        logits = model.forward(self.IDS[:3], cache=cache)
        assert logits.requires_grad
        for block_cache in cache.blocks:
            for t in (block_cache.k, block_cache.v):
                assert not t.requires_grad and t._parents == ()

    def test_step_past_context_rejected(self, model):
        # context 64 holds 3 adapter rows + 61 positions
        cache = model.new_cache()
        model.forward([4] * 60, cache=cache)
        model.forward([5], cache=cache)
        with pytest.raises(ContractError, match="61 cached rows"):
            model.forward([6], cache=cache)
        assert len(cache) == 61

    def test_soft_prompt_after_first_call_rejected(self, model):
        cache = model.new_cache()
        model.forward([4, 5], cache=cache)
        with pytest.raises(ContractError):
            model.forward([6], soft_prompt=Tensor(np.zeros((2, 16))), cache=cache)

    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_new_cache_holds_only_adapter_rows(self, rng, prefix_len):
        model = make_model(rng, prefix_len)
        cache = model.new_cache()
        assert len(cache) == 0 and cache.adapter_rows == prefix_len
        for adapter, block_cache in zip(model.adapters, cache.blocks):
            assert len(block_cache) == prefix_len
            np.testing.assert_array_equal(block_cache.k.data, adapter.data[:, 0, :])
            np.testing.assert_array_equal(block_cache.v.data, adapter.data[:, 1, :])

    def test_adapter_rows_lead_each_block_cache(self, model):
        cache = model.new_cache()
        model.forward(self.IDS[:3], cache=cache)
        assert len(cache) == 3
        for adapter, block_cache in zip(model.adapters, cache.blocks):
            assert len(block_cache) == 3 + 3
            np.testing.assert_array_equal(block_cache.k.data[:3], adapter.data[:, 0, :])
            np.testing.assert_array_equal(block_cache.v.data[:3], adapter.data[:, 1, :])

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_generate_matches_uncached_reference(self, rng, soft, adapters):
        model = make_model(rng, prefix_len=3 if adapters else 0)
        prompt = Tensor(rng.standard_normal((2, 16))) if soft else None
        cfg = GenerationConfig(samples_per_prompt=3, max_new_tokens=12, seed=11)
        expected = reference_generate(model, self.IDS, prompt, cfg)
        assert generate(model, self.IDS, prompt, cfg) == expected

    def test_generate_prefills_once_then_one_position_per_token(self, model, monkeypatch):
        lengths = []
        forward = model.forward

        def counted(ids, *args, **kwargs):
            lengths.append(len(ids))
            return forward(ids, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        cfg = GenerationConfig(samples_per_prompt=3, max_new_tokens=10, seed=2)
        samples = generate(model, self.IDS, None, cfg)
        steps = sum(len(s) - 1 for s in samples)
        assert lengths == [len(self.IDS)] + [1] * steps
