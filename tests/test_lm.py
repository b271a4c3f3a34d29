import numpy as np
import pytest

from planact.errors import ContractError
from planact.lm import LmConfig, MicroLm
from planact.nn import set_trainable
from planact.sampling import GenerationConfig, generate, sample_token
from planact.tensor import Tensor, cross_entropy
from planact.vocab import EOS, Vocabulary, tokenize_prefix

VOCAB = Vocabulary.build(["go to the red block", "open the drawer now", "a b c d e"])


@pytest.fixture
def model(rng):
    cfg = LmConfig(vocab_size=len(VOCAB), dim=16, blocks=2, heads=2, context=64, prefix_len=3)
    return MicroLm(rng, cfg)


class TestLmForward:
    def test_plain_causal_logits(self, model):
        ids = tokenize_prefix("go to the red block", VOCAB)
        logits = model.forward(ids, soft_prompt=None, use_adapters=False)
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
        logits = model.forward([4, 5, 6], use_adapters=True)
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

    def test_invalid_config_rejected(self):
        with pytest.raises(ContractError):
            GenerationConfig(temperature=-0.1)
        with pytest.raises(ContractError):
            GenerationConfig(top_p=0.0)
        with pytest.raises(ContractError):
            GenerationConfig(top_p=1.2)
        with pytest.raises(ContractError):
            GenerationConfig(max_new_tokens=0)


def reference_generate(model, prompt_ids, soft_prompt, cfg, use_adapters=True):
    """Uncached decoding: every step re-runs the prompt and all tokens so far."""
    rng = np.random.default_rng(cfg.seed)
    results = []
    for _ in range(cfg.samples_per_prompt):
        ids = list(prompt_ids)
        new = []
        for _ in range(cfg.max_new_tokens):
            logits = model.forward(ids, soft_prompt, use_adapters=use_adapters)
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
    @pytest.mark.parametrize("use_adapters", [False, True])
    def test_prefill_then_single_steps_match_full_forward(self, model, rng, soft, use_adapters):
        prompt = Tensor(rng.standard_normal((3, 16))) if soft else None
        full = model.forward(self.IDS, prompt, use_adapters=use_adapters).data
        cache = model.new_cache()
        rows = [model.forward(self.IDS[:3], prompt, use_adapters=use_adapters, cache=cache).data]
        for token in self.IDS[3:]:
            rows.append(model.forward([token], None, use_adapters=use_adapters, cache=cache).data)
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

    def test_copies_decode_independently(self, model):
        cache = model.new_cache()
        model.forward(self.IDS[:4], cache=cache)
        twin = cache.copy()
        model.forward([9, 9], cache=cache)
        step = model.forward(self.IDS[4:5], cache=twin).data
        assert len(twin) == 5 and len(cache) == 6
        np.testing.assert_allclose(step, model.forward(self.IDS[:5]).data[-1:], rtol=0.0,
                                   atol=1e-12)

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

    @pytest.mark.parametrize("first", [False, True])
    def test_adapter_setting_fixed_by_first_call(self, model, first):
        cache = model.new_cache()
        model.forward([4, 5], use_adapters=first, cache=cache)
        with pytest.raises(ContractError, match="use_adapters"):
            model.forward([6], use_adapters=not first, cache=cache)
        assert len(cache) == 2

    def test_adapter_rows_lead_each_block_cache(self, model):
        cache = model.new_cache()
        model.forward(self.IDS[:3], cache=cache)
        assert len(cache) == 3
        for adapter, block_cache in zip(model.adapters, cache.blocks):
            assert len(block_cache) == 3 + 3
            np.testing.assert_array_equal(block_cache.k.data[:3], adapter.data[:, 0, :])
            np.testing.assert_array_equal(block_cache.v.data[:3], adapter.data[:, 1, :])

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("use_adapters", [False, True])
    def test_generate_matches_uncached_reference(self, model, rng, soft, use_adapters):
        prompt = Tensor(rng.standard_normal((2, 16))) if soft else None
        cfg = GenerationConfig(samples_per_prompt=3, max_new_tokens=12, seed=11)
        expected = reference_generate(model, self.IDS, prompt, cfg, use_adapters)
        assert generate(model, self.IDS, prompt, cfg, use_adapters=use_adapters) == expected

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
