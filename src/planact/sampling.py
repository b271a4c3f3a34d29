"""Temperature / nucleus sampling over the micro language model.

``generate`` returns token ids; callers that want text detokenise them.  It
prefills the prompt into a cache from ``MicroLm.new_cache``, which opens with
each block's adapter rows (none for ``LmConfig(prefix_len=0)``), and decodes
every sample from its own copy of that cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, PromptTooLongError
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
        if self.temperature < 0.0:
            raise ContractError(f"temperature must be non-negative, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ContractError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.samples_per_prompt < 1:
            raise ContractError("samples_per_prompt must be at least 1")
        if self.max_new_tokens < 1:
            raise ContractError("max_new_tokens must be at least 1")


def sample_token(
    logits: np.ndarray, temperature: float, top_p: float, rng: np.random.Generator
) -> int:
    """Nucleus sampling: keep the smallest top set with cumulative mass >= top_p."""
    if temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cum, top_p))
    cutoff = min(cutoff, len(order) - 1)
    kept = order[: cutoff + 1]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()
    return int(rng.choice(kept, p=kept_probs))


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
