"""Synthetic text corpus generation.

The paper's MapReduce dataset is 15 million Reddit comments. We substitute
a token stream with the statistical properties that matter for WordCount
and Grep: a large vocabulary with Zipfian word frequencies (a few very hot
words, a long tail). Text is dictionary-encoded — each element of the
corpus array is one word token.

Tokens are drawn by exact inverse-CDF sampling with a guide table (the
cutpoint method of Chen & Asau, 1974), in O(n + V) time for n tokens over a
vocabulary of V words. ``[0, 1)`` is cut into K = 2^k equal buckets. A
bucket that holds no CDF value maps every ``u`` in it to the same token, so
the table stores that token; only the ``u`` that land in one of the at most
V other buckets need a binary search. The result is element for element
``np.searchsorted(cdf, u)``.
"""

import math

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import make_rng

# Tokens mapped per pass, so the bucket indices stay in cache.
CHUNK_TOKENS = 1 << 16

# (n_tokens, vocabulary, skew, seed) -> corpus; the last CORPUS_MEMO used.
CORPUS_MEMO = 4
_corpus_memo = {}


def make_corpus(n_tokens, vocabulary=50_000, skew=1.1, seed=2022):
    """Generate a Zipfian token stream (int32 array).

    ``skew`` is the Zipf exponent; 1.0-1.2 matches natural language.

    Engines only read their corpus, so an ``int`` seed's corpus is drawn
    once, shared and read-only (a write raises). A ``Generator`` seed
    bypasses the memo, since drawing consumes its state.
    """
    if n_tokens < 1:
        raise ConfigError(f"n_tokens must be positive, got {n_tokens}")
    if vocabulary < 2:
        raise ConfigError(f"vocabulary must be at least 2, got {vocabulary}")
    if not (math.isfinite(skew) and skew >= 0):
        raise ConfigError(f"skew must be finite and non-negative, got {skew}")
    if not isinstance(seed, int):
        return inverse_cdf(zipf_cdf(vocabulary, skew), make_rng(seed).random(n_tokens))
    key = (n_tokens, vocabulary, skew, seed)
    tokens = _corpus_memo.pop(key, None)
    if tokens is None:
        if len(_corpus_memo) >= CORPUS_MEMO:
            del _corpus_memo[next(iter(_corpus_memo))]  # release before drawing
        tokens = make_corpus(n_tokens, vocabulary, skew, make_rng(seed))
        tokens.flags.writeable = False
    _corpus_memo[key] = tokens
    return tokens


def zipf_cdf(vocabulary, skew):
    """The CDF of a Zipf(``skew``) law over ranks 1..``vocabulary``.

    The last value is exactly 1.0, so every ``u`` in [0, 1) maps to a token
    inside the vocabulary (the rounded cumulative sum ends a few ulps short).
    """
    ranks = np.arange(1, vocabulary + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return cdf


def guide_buckets(vocabulary):
    """Guide-table size K: a power of two at least 16x ``vocabulary``.

    At most ``vocabulary`` of the K buckets hold a CDF value, so at most a
    sixteenth of the draws fall back to a binary search.
    """
    return 1 << (int(vocabulary - 1).bit_length() + 4)


def inverse_cdf(cdf, u):
    """Map each ``u`` in [0, 1) to ``np.searchsorted(cdf, u)``, as int32.

    ``cdf`` is non-decreasing and ends at 1.0. K is a power of two, so
    ``u * K`` and ``cdf * K`` are exact and ``floor(u * K) == b`` exactly
    when ``b / K <= u < (b + 1) / K``.
    """
    buckets = guide_buckets(len(cdf))
    # cut[i]: the bucket cdf[i] falls in (bucket K for cdf[-1] == 1.0).
    cut = (cdf * buckets).astype(np.intp)
    # table[b] is the number of CDF values below b / K: i for the buckets
    # cut[i - 1] < b <= cut[i]. That is the token of every u in bucket b
    # when no CDF value falls inside it; the other buckets hold -1. One
    # int32 np.repeat builds it in O(K + V); a bincount and a cumulative
    # sum would pass through K + 1 int64 counts (8 MiB at V = 50 000),
    # which raised peak RSS.
    table = np.repeat(np.arange(len(cdf), dtype=np.int32), np.diff(cut, prepend=-1))
    table[cut] = -1
    tokens = np.empty(len(u), dtype=np.int32)
    for lo in range(0, len(u), CHUNK_TOKENS):
        chunk_u = u[lo:lo + CHUNK_TOKENS]
        chunk = tokens[lo:lo + CHUNK_TOKENS]
        # Every index is below K (u < 1); "clip" spares numpy the copy of
        # ``out`` that "raise" buffers.
        np.take(table, (chunk_u * buckets).astype(np.intp), out=chunk, mode="clip")
        ambiguous = np.flatnonzero(chunk < 0)
        if len(ambiguous):
            chunk[ambiguous] = np.searchsorted(cdf, chunk_u[ambiguous])
    return tokens
