"""Counter-based random streams for chunked batch work.

Chunk c of a batch draws from SeedSequence(seed, spawn_key=(c,)), so every
result depends only on (seed, chunk index), never on the number of threads.
"""

from __future__ import annotations

from threading import Thread

import numpy as np

from .config import count


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def check_workers(n_workers: int):
    """ValueError unless ``n_workers`` is an integer of at least 1."""
    if count(n_workers, "n_workers") < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")


def map_chunks(fn, n_items: int, chunk_size: int, seed: int, n_workers: int = 1) -> list:
    """[fn(rng, lo, size)] over the chunks [lo, lo + size) of range(n_items),
    in chunk order, on the calling thread and min(n_workers, n_chunks) - 1
    helper threads.  Each runs one loop, pulling the next chunk index from one
    shared iterator and storing its result by index.  A pulled chunk always
    runs, and no loop pulls again once a chunk has failed.  Chunks are pulled
    in order, so every chunk below a failing one runs, and the call raises the
    lowest failing chunk's exception once every helper has ended."""
    check_workers(n_workers)
    n_chunks = (n_items + chunk_size - 1) // chunk_size
    results, errors, todo = [None] * n_chunks, {}, iter(range(n_chunks))

    def loop():
        for c in todo:  # a range iterator hands out each index once, in one C call
            lo = c * chunk_size
            try:
                results[c] = fn(chunk_rng(seed, c), lo, min(chunk_size, n_items - lo))
            except BaseException as e:
                errors[c] = e
            if errors:
                return

    helpers = [Thread(target=loop) for _ in range(min(n_workers, n_chunks) - 1)]
    for t in helpers:
        t.start()
    loop()
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results
