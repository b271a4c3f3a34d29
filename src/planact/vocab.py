"""In-memory word-level vocabulary with reserved specials, plus tokenise/detokenise."""

from __future__ import annotations

import re
from typing import Iterable

from .errors import ContractError, ValidationError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
MAX_SEQUENCE_LENGTH = 256  # the rows of the bridge's text position table

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)?|[^\sa-z0-9]")
# punctuation that attaches to the preceding word when detokenising;
# "(" additionally glues onto the token that follows it
_ATTACH_LEFT = {".", ",", "!", "?", ";", ":", ")", "'", '"', "("}
_ATTACH_RIGHT = {"("}


def split_words(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Dense token ids: specials occupy 0-3, corpus words follow."""

    def __init__(self, words: Iterable[str]):
        self.tokens = list(SPECIAL_TOKENS) + list(words)
        self.index = {}
        for i, tok in enumerate(self.tokens):
            if self.index.setdefault(tok, i) != i:
                raise ValidationError(f"token {tok!r} appears more than once")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, corpus_lines: Iterable[str]) -> "Vocabulary":
        counts: dict[str, int] = {}
        for line in corpus_lines:
            for word in split_words(line):
                counts[word] = counts.get(word, 0) + 1
        ordered = sorted(counts, key=lambda w: (-counts[w], w))
        return cls(ordered)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """BOS + word ids + EOS, unknown words to UNK, truncated to ``MAX_SEQUENCE_LENGTH`` ids."""
    ids = [BOS]
    for word in split_words(text):
        ids.append(vocab.index.get(word, UNK))
    ids.append(EOS)
    if len(ids) > MAX_SEQUENCE_LENGTH:
        ids = ids[: MAX_SEQUENCE_LENGTH - 1] + [EOS]
    return ids


def tokenize_prefix(text: str, vocab: Vocabulary) -> list[int]:
    """Like ``tokenize`` but without the trailing EOS, for generation prompts."""
    return tokenize(text, vocab)[:-1]


def detokenize(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of tokenise up to whitespace normalisation; specials are dropped."""
    pieces: list[str] = []
    glue_next = False
    for i in ids:
        if i < 0 or i >= len(vocab):
            raise ContractError(f"token id {i} outside the vocabulary's {len(vocab)} ids")
        if i in (PAD, BOS, EOS):
            continue
        tok = vocab.tokens[i]
        if pieces and (tok in _ATTACH_LEFT or glue_next):
            pieces[-1] += tok
        else:
            pieces.append(tok)
        glue_next = tok in _ATTACH_RIGHT
    return " ".join(pieces)
