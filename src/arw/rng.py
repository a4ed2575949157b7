"""Counter-based random streams keyed by (master seed, trial index).

Every random draw in the toolkit flows through `stream`, which builds a
Philox generator from a SeedSequence keyed by the master seed and a spawn
path.  Streams are pure functions of their keys: no global state, and the
same key always yields the same draws regardless of process or thread
interleaving.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import ValidationError


def stream(master_seed: int, *key_path: int) -> Generator:
    """Return the generator for the given master seed and key path.

    `key_path` is typically `(trial_index,)`; nested experiments may use
    longer paths.  Philox is counter-based, so independent streams are
    cheap and reproducible.  Seeds and keys are nonnegative integers.
    """
    keys = tuple(int(k) for k in key_path)
    if int(master_seed) < 0 or min(keys, default=0) < 0:
        raise ValidationError(f"seeds and trial indices must be >= 0 (seed {master_seed}, keys {keys})")
    seq = SeedSequence(entropy=int(master_seed), spawn_key=keys)
    return Generator(Philox(seq))


def normal_pairs(master_seed: int, trial_index: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` i.i.d. standard normal (a, b) pairs for one trial.

    Pairs are interleaved in draw order: the k-th pair consumes draws
    2k and 2k+1, so coefficient streams are stable under changes in how
    many pairs a caller requests beyond truncation.
    """
    vals = stream(master_seed, trial_index).standard_normal(2 * count)
    return vals[0::2].copy(), vals[1::2].copy()
