"""Counter-based random streams for chunked batch work.

Chunk c of a batch draws from SeedSequence(seed, spawn_key=(c,)), so every
result depends only on (seed, chunk index), never on the number of threads.
"""

from __future__ import annotations

import numpy as np


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def check_workers(n_workers: int):
    """ValueError unless ``n_workers`` is at least 1."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")


def map_chunks(fn, n_items: int, chunk_size: int, seed: int, n_workers: int = 1) -> list:
    """[fn(rng, lo, size)] over the chunks [lo, lo + size) of range(n_items),
    in chunk order, run on up to ``n_workers`` threads.

    Each thread loops, pulling the next chunk index from one shared iterator
    and storing its result by index, so no future is made per chunk.  A
    pulled chunk always runs, and no thread pulls again once a chunk has
    failed.  Chunks are pulled in order, so every chunk below a failing one
    runs, and the call raises the lowest failing chunk's exception, as
    ``Executor.map`` would."""
    check_workers(n_workers)

    def run(c: int):
        lo = c * chunk_size
        return fn(chunk_rng(seed, c), lo, min(chunk_size, n_items - lo))

    n_chunks = (n_items + chunk_size - 1) // chunk_size
    n_loops = min(n_workers, n_chunks)
    if n_loops <= 1:
        return [run(c) for c in range(n_chunks)]
    from concurrent.futures import ThreadPoolExecutor  # with logging, only where threads run

    results, errors, todo = [None] * n_chunks, {}, iter(range(n_chunks))

    def loop():
        for c in todo:  # a range iterator hands out each index once, in one C call
            try:
                results[c] = run(c)
            except BaseException as e:
                errors[c] = e
            if errors:
                return

    with ThreadPoolExecutor(max_workers=n_loops) as pool:
        for future in [pool.submit(loop) for _ in range(n_loops)]:
            future.result()
    if errors:
        raise errors[min(errors)]
    return results
