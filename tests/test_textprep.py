import re
import string

import numpy as np
import pytest

from companysim.textprep import (
    ChunkingConfig,
    chunk,
    clean_text,
    has_text,
    prepare_chunks,
    tokenize,
    truncate,
)


def test_clean_text_removes_urls():
    raw = "Visit https://example.com/a?b=1 or www.example.org/page for info"
    cleaned = clean_text(raw)
    assert "example" not in cleaned
    assert cleaned == "visit or for info"


def test_clean_text_strips_non_ascii_and_lowercases():
    assert clean_text("Café München Corp™") == "caf mnchen corp"


def test_clean_text_collapses_whitespace():
    assert clean_text("  a\t\tb\n\nc  ") == "a b c"


def test_clean_text_idempotent():
    rng = np.random.default_rng(7)
    pieces = ["Text", "https://x.co/y", "café", "A  B", "\tWWW.z.com q", "100%"]
    for _ in range(200):
        raw = " ".join(rng.choice(pieces, size=rng.integers(1, 8)))
        once = clean_text(raw)
        assert clean_text(once) == once


def test_clean_text_never_grows():
    samples = ["Hello   World", "x https://a.b c", "ééé", ""]
    for s in samples:
        assert len(clean_text(s)) <= len(s)


def test_tokenize_peels_edge_punctuation():
    toks = tokenize("(hello, world!) mid-word stays 3.5")
    assert toks == [
        "(", "hello", ",", "world", "!", ")", "mid-word", "stays", "3.5",
    ]


def test_tokenize_pure_punctuation_word():
    assert tokenize("a -- b") == ["a", "-", "-", "b"]


def test_truncate_keeps_prefix():
    toks = list("abcdefgh")
    cut = truncate(toks, 3)
    assert cut == ["a", "b", "c"]
    assert toks == list("abcdefgh")


def test_truncate_rejects_bad_budget():
    with pytest.raises(ValueError):
        truncate(["a"], 0)


def test_chunk_partitions_exactly():
    # Chunks must cover all tokens, in order, with only the last one short.
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(0, 40))
        window = int(rng.integers(1, 12))
        toks = [f"t{i}" for i in range(n)]
        chunks = chunk(toks, window)
        rebuilt = [t for c in chunks for t in c]
        assert rebuilt == toks
        assert all(len(c) == window for c in chunks[:-1])
        if chunks:
            assert 1 <= len(chunks[-1]) <= window
        else:
            assert n == 0


def test_chunking_config_validates():
    with pytest.raises(ValueError):
        ChunkingConfig(window=0)
    with pytest.raises(ValueError):
        ChunkingConfig(context_budget=0)
    with pytest.raises(ValueError):
        ChunkingConfig(tokens_per_word=0.0)


def test_effective_budget_scales_with_tokens_per_word():
    cfg = ChunkingConfig(window=512, context_budget=1024, tokens_per_word=2.0)
    assert cfg.effective_window() == 256
    assert cfg.effective_budget() == 512
    tiny = ChunkingConfig(window=1, context_budget=1, tokens_per_word=10.0)
    assert tiny.effective_window() == 1
    assert tiny.effective_budget() == 1


def test_prepare_chunks_end_to_end():
    cfg = ChunkingConfig(window=4, context_budget=10)
    words = " ".join(f"w{i}" for i in range(50))
    chunks = prepare_chunks(words, cfg)
    # Budget of 10 tokens split into windows of 4 -> sizes 4, 4, 2.
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert chunks[0] == ["w0", "w1", "w2", "w3"]
    assert chunks[-1] == ["w8", "w9"]


def test_prepare_chunks_empty_text():
    assert prepare_chunks("   ", ChunkingConfig()) == []


# ---------------------------------------------------------------------------
# Oracles: the straightforward regex and peel-one-character-at-a-time forms
# of clean_text and tokenize. The library versions must agree on every str.

_REF_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_REF_WS_RE = re.compile(r"\s+")
_REF_PUNCT = frozenset(string.punctuation)


def reference_clean_text(raw: str) -> str:
    text = _REF_URL_RE.sub(" ", raw)
    text = text.encode("ascii", "ignore").decode("ascii")
    text = text.lower()
    return _REF_WS_RE.sub(" ", text).strip()


def reference_tokenize(cleaned: str) -> list[str]:
    tokens: list[str] = []
    for word in cleaned.split():
        lead: list[str] = []
        while word and word[0] in _REF_PUNCT:
            lead.append(word[0])
            word = word[1:]
        trail: list[str] = []
        while word and word[-1] in _REF_PUNCT:
            trail.append(word[-1])
            word = word[:-1]
        tokens.extend(lead)
        if word:
            tokens.append(word)
        tokens.extend(reversed(trail))
    return tokens


# URL prefixes in every case the pattern folds (long s included), near
# misses, every ASCII whitespace character, no-break space, non-ASCII
# letters (one lowercasing to two characters), punctuation-only words.
_FUZZ_PIECES = [
    "http://", "HTTPS://", "Www.", "www.", "WWW.", "httpſ://", "hTtPs://",
    "http:/", "ww.", "://", "wwW", ".", "ftp://",
    "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", " ",
    "\xa0", "\u2003", "\u3000",
    "é", "Ö", "ß", "İ", "ſ", "K", "日本", "™",
    "--", "...", "(", ")", "!?", "'", '"', "-", "%", ",",
    "Acme", "corp", "3.5", "mid-word", "A", "z", "example.com/a?b=1",
]


def _fuzz_strings(seed: int, n: int):
    rng = np.random.default_rng(seed)
    yield ""
    for _ in range(n):
        picks = rng.integers(0, len(_FUZZ_PIECES), size=rng.integers(0, 14))
        yield "".join(_FUZZ_PIECES[i] for i in picks)


def test_clean_text_matches_reference_oracle():
    for raw in _fuzz_strings(11, 20000):
        assert clean_text(raw) == reference_clean_text(raw), repr(raw)


def test_tokenize_matches_reference_oracle():
    for raw in _fuzz_strings(12, 20000):
        # raw strings too: tokenize is public and takes any str
        assert tokenize(raw) == reference_tokenize(raw), repr(raw)
        cleaned = reference_clean_text(raw)
        assert tokenize(cleaned) == reference_tokenize(cleaned), repr(raw)


# Short strings, most of which clean to nothing: every ASCII control
# character, DEL, non-ASCII letters and spaces, and URL markers in mixed case.
_HAS_TEXT_PIECES = [
    *map(chr, range(0x20)), "\x7f", " ", "\xa0", "\u2003", "\x85",
    "é", "ß", "日本", "ſ", "K", "™",
    "httpſ://x", "HTTPS://", "HtTp://a.b", "WWW.", "Www.x", "www.", "://", "ww.",
    "a", ".", "~", "!",
]


def test_has_text_is_whether_clean_text_is_empty():
    rng = np.random.default_rng(13)
    raws = list(_fuzz_strings(14, 5000))
    for _ in range(20000):
        picks = rng.integers(0, len(_HAS_TEXT_PIECES), size=rng.integers(0, 6))
        raws.append("".join(_HAS_TEXT_PIECES[i] for i in picks))
    raws += [chr(c) for c in range(0x180)] + ["WWW.\x00", "HTTPS://x\x7f", "x://\x1c"]
    results = [has_text(raw) == bool(clean_text(raw)) for raw in raws]
    assert all(results), [repr(r) for r, ok in zip(raws, results) if not ok][:5]
    assert 0.2 < np.mean([has_text(raw) for raw in raws]) < 0.8


def test_clean_text_url_edge_cases():
    cases = {
        "see httpſ://x.y now": "see now",
        "see HTTPS://x.y now": "see now",
        "a Www.b.c d": "a d",
        "wwW.x y": "y",
        "ww.x y": "ww.x y",
        "http:/x y": "http:/x y",
        "\x1cA\x1fb\xa0c": "a bc",
        "": "",
    }
    for raw, expected in cases.items():
        assert clean_text(raw) == expected == reference_clean_text(raw)


def test_tokenize_punctuation_only_and_mixed_words():
    assert tokenize("-- ...x!? (a) ''") == [
        "-", "-", ".", ".", ".", "x", "!", "?", "(", "a", ")", "'", "'",
    ]
