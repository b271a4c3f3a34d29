"""Temperature / nucleus sampling over the micro language model.

``generate`` returns token ids; callers that want text detokenise them.  It
prefills the prompt into a cache from ``MicroLm.new_cache``, which opens with
each block's adapter rows (none for ``LmConfig(prefix_len=0)``), and decodes
every sample from its own copy of that cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError, PromptTooLongError, require_int
from .lm import MicroLm
from .tensor import Tensor, no_grad
from .vocab import EOS


@dataclass
class GenerationConfig:
    temperature: float = 0.9
    top_p: float = 0.95
    max_new_tokens: int = 48
    samples_per_prompt: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.temperature < math.inf:
            raise ContractError(
                f"temperature must be finite and non-negative, got {self.temperature}"
            )
        if not 0.0 < self.top_p <= 1.0:
            raise ContractError(f"top_p must lie in (0, 1], got {self.top_p}")
        for name, least in (("samples_per_prompt", 1), ("max_new_tokens", 1), ("seed", 0)):
            require_int(name, getattr(self, name), least=least)


def sample_token(
    logits: np.ndarray, temperature: float, top_p: float, rng: np.random.Generator
) -> int:
    """Nucleus sampling: keep the smallest top set with cumulative mass >= top_p.

    Temperature 0 is greedy.  A NaN or +inf logit (or no finite one) raises
    ``NumericError``.  The draw is the one ``rng.choice(kept, p=kept_probs)``
    makes after validating ``p``, so it uses the same random stream.
    """
    top = np.maximum.reduce(logits)
    if not -math.inf < top < math.inf:
        raise NumericError(f"logits need a finite maximum, got {top}")
    if temperature == 0.0:
        return int(np.argmax(logits))
    # dividing by temperature > 0 keeps the order, so max(logits / t) == top / t
    probs = logits / temperature
    probs -= top / temperature
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs)
    order = (-probs).argsort(kind="stable")
    ranked = probs[order]
    cutoff = min(int(ranked.cumsum().searchsorted(top_p)), len(order) - 1)
    kept_probs = ranked[: cutoff + 1]
    kept_probs /= np.add.reduce(kept_probs)
    cdf = kept_probs.cumsum()
    cdf /= cdf[-1]
    return int(order[cdf.searchsorted(rng.random(), side="right")])


def generate(
    model: MicroLm,
    prompt_ids: list[int],
    soft_prompt: Tensor | None,
    cfg: GenerationConfig,
) -> list[list[int]]:
    """Draw ``samples_per_prompt`` continuations of ``prompt_ids`` as token ids.

    The prompt (and soft prompt) is prefilled once into a key/value cache.
    Each sample takes its own copy of that cache, draws its first token from
    the prefill's last logit row, and then feeds one token per step, so a
    step runs one position.  Samples are drawn sequentially from one seeded
    stream, stopping at EOS or after ``max_new_tokens`` new tokens; no forward
    runs after a sample's last token.  Decoding records no autodiff graph.  A
    request whose longest sample would outgrow ``LmConfig.context`` raises
    ``PromptTooLongError`` before any forward runs.
    """
    n_soft = 0 if soft_prompt is None else soft_prompt.shape[0]
    adapters, context = model.config.prefix_len, model.config.context
    if adapters + n_soft + len(prompt_ids) + cfg.max_new_tokens - 1 > context:
        raise PromptTooLongError(
            f"{adapters} adapter rows + {n_soft} soft prompt rows + {len(prompt_ids)} prompt "
            f"ids + {cfg.max_new_tokens} new tokens less the last exceed context {context}"
        )
    with no_grad():
        rng = np.random.default_rng(cfg.seed)
        results = []
        prefill = model.new_cache()
        first = model.forward(prompt_ids, soft_prompt, cache=prefill)
        for _ in range(cfg.samples_per_prompt):
            cache = prefill.copy()
            logits = first.data[-1]
            new: list[int] = []
            for _ in range(cfg.max_new_tokens):
                if new:
                    step = model.forward([new[-1]], None, cache=cache)
                    logits = step.data[-1]
                token = sample_token(logits, cfg.temperature, cfg.top_p, rng)
                new.append(token)
                if token == EOS:
                    break
            results.append(new)
        return results
