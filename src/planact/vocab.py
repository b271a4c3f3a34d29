"""Word-level vocabulary with reserved specials, plus tokenise/detokenise."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from .checkpoint import atomic_write_text
from .errors import ValidationError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
MAX_SEQUENCE_LENGTH = 256

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
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    @classmethod
    def build(cls, corpus_lines: Iterable[str]) -> "Vocabulary":
        counts: dict[str, int] = {}
        for line in corpus_lines:
            for word in split_words(line):
                counts[word] = counts.get(word, 0) + 1
        ordered = sorted(counts, key=lambda w: (-counts[w], w))
        return cls(ordered)

    def save(self, path: Path) -> None:
        """One non-special token per line; the id is the line number plus the special count."""
        atomic_write_text(Path(path), "\n".join(self.tokens[len(SPECIAL_TOKENS):]) + "\n")

    @classmethod
    def load(cls, path: Path) -> "Vocabulary":
        words = [ln for ln in Path(path).read_text().splitlines() if ln]
        seen = set(SPECIAL_TOKENS)
        for word in words:
            if word in seen:
                raise ValidationError(f"{path}: token {word!r} appears more than once")
            seen.add(word)
        return cls(words)


def tokenize(text: str, vocab: Vocabulary, max_len: int = MAX_SEQUENCE_LENGTH) -> list[int]:
    """BOS + word ids + EOS, unknown words to UNK, truncated to ``max_len`` ids total."""
    ids = [BOS]
    for word in split_words(text):
        ids.append(vocab.index.get(word, UNK))
    ids.append(EOS)
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [EOS]
    return ids


def tokenize_prefix(text: str, vocab: Vocabulary, max_len: int = MAX_SEQUENCE_LENGTH) -> list[int]:
    """Like ``tokenize`` but without the trailing EOS, for generation prompts."""
    return tokenize(text, vocab, max_len=max_len)[:-1]


def detokenize(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of tokenise up to whitespace normalisation; specials are dropped."""
    pieces: list[str] = []
    glue_next = False
    for i in ids:
        if i < 0 or i >= len(vocab):
            raise IndexError(f"token id {i} out of range for vocabulary of {len(vocab)}")
        if i in (PAD, BOS, EOS):
            continue
        tok = vocab.tokens[i]
        if pieces and (tok in _ATTACH_LEFT or glue_next):
            pieces[-1] += tok
        else:
            pieces.append(tok)
        glue_next = tok in _ATTACH_RIGHT
    return " ".join(pieces)
