"""Text cleaning, tokenization, truncation and chunking.

Cleaning is bit-exact and documented so fixtures stay portable:
URLs (scheme- or www-prefixed, up to the next whitespace) are replaced by a
space, non-ASCII characters are dropped, the text is lowercased, and
whitespace runs collapse to single spaces with the ends trimmed.

Tokenization is a deterministic word + punctuation splitter, not a subword
vocabulary: its tokens only govern truncation and chunk boundaries. The
``tokens_per_word`` knob on ChunkingConfig rescales budgets to emulate
subword inflation when a downstream provider counts subword tokens.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_PUNCT = frozenset(string.punctuation)
# an ASCII character that str.split does not split on: clean_text keeps it
_KEPT_RE = re.compile(r"[\x00-\x08\x0e-\x1b!-\x7f]")


@dataclass(frozen=True)
class ChunkingConfig:
    """Chunk window and total context budget, both in tokens."""

    window: int = 512
    context_budget: int = 512
    tokens_per_word: float = 1.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.context_budget < 1:
            raise ValueError(f"context_budget must be >= 1, got {self.context_budget}")
        if self.tokens_per_word <= 0:
            raise ValueError(f"tokens_per_word must be > 0, got {self.tokens_per_word}")

    def effective_window(self) -> int:
        return max(1, round(self.window / self.tokens_per_word))

    def effective_budget(self) -> int:
        return max(1, round(self.context_budget / self.tokens_per_word))


def clean_text(raw: str) -> str:
    """Strip URLs and non-ASCII characters, lowercase, collapse whitespace.

    Idempotent; never increases byte length.
    """
    text = raw
    # Every _URL_RE match holds "://" or "www." once lowercased: only W and w
    # fold to w, and the pattern's one non-ASCII fold (long s, U+017F, to s)
    # can only stand before "://".
    if "://" in raw or "www." in raw.lower():
        text = _URL_RE.sub(" ", raw)
    if not text.isascii():
        text = text.encode("ascii", "ignore").decode("ascii")
    # on ASCII, str.split and re's \s split on the same characters
    # (\x1c-\x1f included), so this equals collapsing \s+ and stripping
    return " ".join(text.lower().split())


def has_text(raw: str) -> bool:
    """Whether ``clean_text(raw)`` is non-empty, without building it: some
    ASCII character that is not whitespace is left once URLs are dropped."""
    text = raw
    if "://" in raw or "www." in raw.lower():  # the test clean_text makes
        text = _URL_RE.sub(" ", raw)
    return _KEPT_RE.search(text) is not None


def tokenize(cleaned: str) -> list[str]:
    """Split cleaned text on whitespace, peeling leading/trailing punctuation
    into separate tokens. Interior punctuation (hyphens, decimals) stays."""
    tokens: list[str] = []
    for word in cleaned.split():
        if word[0] not in _PUNCT and word[-1] not in _PUNCT:
            tokens.append(word)
            continue
        rest = word.lstrip(string.punctuation)
        core = rest.rstrip(string.punctuation)
        tokens.extend(word[: len(word) - len(rest)])
        if core:
            tokens.append(core)
        tokens.extend(rest[len(core):])
    return tokens


def truncate(tokens: list[str], budget: int) -> list[str]:
    """Keep the first ``budget`` tokens, order preserved."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return tokens[:budget]


def chunk(tokens: list[str], window: int) -> list[list[str]]:
    """Partition into consecutive chunks of ``window`` tokens; the last chunk
    may be shorter. Empty input yields an empty list."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return [tokens[i : i + window] for i in range(0, len(tokens), window)]


def prepare_chunks(raw: str, config: ChunkingConfig) -> list[list[str]]:
    """Full preprocessing path: clean, tokenize, truncate to the context
    budget, then split into embedding windows, each a list of tokens."""
    toks = tokenize(clean_text(raw))
    toks = truncate(toks, config.effective_budget())
    return chunk(toks, config.effective_window())
