"""Synthetic corpus and global-batch sampling.

The paper fixes the global batch size at 512 sequences per training
step (S6.1) and eliminates sequences longer than the task's maximum
context length.  :class:`SyntheticCorpus` reproduces that protocol over
the parametric length distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads its random module on first use; loading it with the
# program keeps that import out of the first sampled batch.
import numpy.random  # noqa: F401

from repro.data.distributions import LengthDistribution

#: Global batch size used throughout the paper's evaluation.
DEFAULT_GLOBAL_BATCH_SIZE = 512


@dataclass(frozen=True)
class GlobalBatch:
    """One training step's worth of raw (unpacked) sequences.

    Attributes:
        lengths: Sequence lengths in tokens; order is sampling order.
        step: Training-step index this batch belongs to.
    """

    lengths: tuple[int, ...]
    step: int = 0

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("a global batch must contain at least one sequence")
        if any(s <= 0 for s in self.lengths):
            raise ValueError("all sequence lengths must be positive")

    @property
    def num_sequences(self) -> int:
        return len(self.lengths)

    @property
    def total_tokens(self) -> int:
        return int(sum(self.lengths))

    @property
    def max_length(self) -> int:
        return int(max(self.lengths))


class SyntheticCorpus:
    """A stream of global batches drawn from a length distribution.

    Args:
        distribution: Length sampler (e.g. :data:`repro.data.GITHUB`).
        max_context: Task context-length limit; longer sequences are
            eliminated, as in the paper's protocol.
        global_batch_size: Sequences per training step.
        seed: RNG seed; batches are deterministic given (seed, step).
    """

    def __init__(
        self,
        distribution: LengthDistribution,
        max_context: int,
        global_batch_size: int = DEFAULT_GLOBAL_BATCH_SIZE,
        seed: int = 0,
    ) -> None:
        if max_context <= 0:
            raise ValueError(f"max_context must be positive, got {max_context}")
        if global_batch_size <= 0:
            raise ValueError(
                f"global_batch_size must be positive, got {global_batch_size}"
            )
        self.distribution = distribution
        self.max_context = max_context
        self.global_batch_size = global_batch_size
        self.seed = seed

    def batch(self, step: int) -> GlobalBatch:
        """The global batch for training step ``step``.

        Over-length sequences are dropped and replaced so that every
        batch holds exactly ``global_batch_size`` sequences.
        """
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        rng = np.random.default_rng((self.seed, step))
        kept: list[int] = []
        # Oversample in chunks until the batch is full; the tail beyond
        # max_context is thin, so one or two rounds usually suffice.
        while len(kept) < self.global_batch_size:
            need = self.global_batch_size - len(kept)
            draw = self.distribution.sample(max(need * 2, 64), rng)
            kept.extend(int(s) for s in draw if s <= self.max_context)
        return GlobalBatch(lengths=tuple(kept[: self.global_batch_size]), step=step)

    def batches(self, num_steps: int, start_step: int = 0):
        """Yield ``num_steps`` consecutive global batches."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        for step in range(start_step, start_step + num_steps):
            yield self.batch(step)

    def sample_lengths(self, n: int, seed_offset: int = 0) -> np.ndarray:
        """Draw ``n`` raw lengths (no context-limit filtering).

        Used by the Fig. 2 histogram reproduction, which plots the
        corpus marginal rather than the filtered training stream.
        """
        # A distinct stream from the batch RNGs: third component tags
        # "raw marginal" draws.
        rng = np.random.default_rng((self.seed, seed_offset, 0x5EED))
        return self.distribution.sample(n, rng)
