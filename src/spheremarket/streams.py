"""Counter-based random streams for chunked batch work.

Chunk c of a batch draws from SeedSequence(seed, spawn_key=(c,)), so every
result depends only on (seed, chunk index), never on the number of threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def map_chunks(fn, n_items: int, chunk_size: int, seed: int, n_workers: int = 1) -> list:
    """[fn(rng, lo, size)] over the chunks [lo, lo + size) of range(n_items),
    in chunk order, run on up to ``n_workers`` threads."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")

    def run(c: int):
        lo = c * chunk_size
        return fn(chunk_rng(seed, c), lo, min(chunk_size, n_items - lo))

    chunks = range((n_items + chunk_size - 1) // chunk_size)
    if n_workers == 1:
        return [run(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, chunks))
