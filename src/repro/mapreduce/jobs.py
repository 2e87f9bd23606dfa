"""MapReduce jobs: WordCount and Grep (the paper's two benchmarks).

Both count tokens, so a record is a key counted once: Phoenix's
(token, 1) pair keeps only its key here, and the bytes a record ships to
its reducer are modelled by size alone, ``value_bytes_per_record``.
"""

import numpy as np


class CountJob:
    """The counting that WordCount and Grep share.

    ``reduce`` turns one reduce task's keys into a ``(distinct_keys,
    counts)`` pair; ``merge`` sums one or more such pairs, whose keys
    may overlap, into the job's ``{key: count}`` result.
    """

    def reduce(self, keys):
        return np.unique(keys, return_counts=True)

    def merge(self, partials):
        keys = np.concatenate([k for k, _c in partials])
        if len(keys) == 0:
            return {}
        counts = np.concatenate([c for _k, c in partials], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        totals = np.add.reduceat(counts[order], starts)
        return dict(zip(keys[starts].tolist(), totals.tolist()))


class WordCountJob(CountJob):
    """Count occurrences of every word token.

    Every input token emits one record — the maximal shuffle volume, which
    is why WordCount's map phase is the DDC bottleneck (Figure 10, right
    group).
    """

    name = "WordCount"
    map_ops_per_token = 15  # tokenisation + key-value construction
    reduce_ops_per_record = 6
    #: Each emitted record carries just a count.
    value_bytes_per_record = 8

    def map_compute(self, tokens):
        return tokens


class GrepJob(CountJob):
    """Find occurrences of a token pattern.

    Only matching tokens emit records, so the shuffle is small and the map
    phase is compute-heavy (pattern matching per token) — the contrast
    with WordCount that Figure 13 shows as different speedups.
    """

    name = "Grep"
    map_ops_per_token = 12  # pattern matching is pricier than counting
    reduce_ops_per_record = 2
    #: Each match ships the whole matching line to its reducer.
    value_bytes_per_record = 160

    def __init__(self, pattern_tokens):
        self.pattern_tokens = np.asarray(sorted(pattern_tokens), dtype=np.int64)

    def map_compute(self, tokens):
        return tokens[np.isin(tokens, self.pattern_tokens)]
