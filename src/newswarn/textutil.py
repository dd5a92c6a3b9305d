"""Token normalization shared by corpus ingestion and frame filtering."""

from __future__ import annotations

import re

TOKEN = r"[a-z0-9]+"  # the pattern of a token in lowercased text
_TOKEN = re.compile(TOKEN)

MAX_NGRAM = 3  # tokens in the longest text feature


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, strip punctuation, split on whitespace."""
    return tuple(_TOKEN.findall(text.lower()))


def normalize_ngram(ngram) -> str:
    """Canonical space-joined form of an n-gram given as string or tokens."""
    if isinstance(ngram, str):
        toks = tokenize(ngram)
    else:
        toks = tuple(t for tok in ngram for t in tokenize(tok))
    return " ".join(toks)


def iter_ngrams(tokens):
    """All contiguous 1..MAX_NGRAM-grams of a token sequence, as tuples."""
    toks = tuple(tokens)
    for n in range(1, MAX_NGRAM + 1):
        for i in range(len(toks) - n + 1):
            yield toks[i : i + n]


def contains_subsequence(tokens, needle) -> bool:
    """Whole-token contiguous match of ``needle`` inside ``tokens``."""
    toks = tuple(tokens)
    sub = tuple(needle)
    n = len(sub)
    if n == 0 or n > len(toks):
        return False
    return any(toks[i : i + n] == sub for i in range(len(toks) - n + 1))
