"""Branch prediction models.

Figure 7 of the paper charges 1 cycle per resolved conditional and 5 cycles
per misprediction. The R10000-family predictor is a per-site 2-bit
saturating counter table; we model exactly that (without aliasing, since our
site ids are exact). A static always-taken predictor is provided for
ablation studies.

Each predictor is one :class:`~repro.machine.sinks.TraceSink` over encoded
branch-event chunks (``site*2 + taken``, see :mod:`repro.exec.events`),
checked with :func:`~repro.machine.sinks.check_codes`; the ``predictor=``
argument of both measure functions takes such a sink. Sites are
independent and the sinks preserve per-site order, so interleaved
streaming replay equals a grouped-by-site replay of the whole trace —
the property tests assert it against
:func:`repro.machine.oracles.two_bit_predictor_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.events import decode_branch_events
from repro.machine.sinks import check_codes


@dataclass(frozen=True)
class BranchStats:
    """Outcome of replaying a branch trace."""

    resolved: int
    mispredicted: int

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions / resolved (0 for an empty trace)."""
        return self.mispredicted / self.resolved if self.resolved else 0.0


class TwoBitPredictorSink:
    """Per-site 2-bit saturating counters over encoded branch chunks.

    States 0..3, initially weakly taken; predict taken when state >= 2;
    increment on taken, decrement on not-taken, saturating.
    """

    #: Initial counter state (weakly taken).
    INITIAL_STATE = 2

    def __init__(self) -> None:
        self._states: dict[int, int] = {}
        self._resolved = 0
        self._mispredicted = 0

    def feed(self, codes: np.ndarray) -> None:
        """Update every site's counter with one chunk of events."""
        codes = check_codes(codes)
        states = self._states
        init = self.INITIAL_STATE
        mispredicted = 0
        for code in codes.tolist():
            site = code >> 1
            outcome = code & 1
            state = states.get(site, init)
            if (state >= 2) != bool(outcome):
                mispredicted += 1
            if outcome:
                if state < 3:
                    state += 1
            elif state > 0:
                state -= 1
            states[site] = state
        self._resolved += len(codes)
        self._mispredicted += mispredicted

    def finish(self) -> BranchStats:
        """Accumulated prediction statistics."""
        return BranchStats(self._resolved, self._mispredicted)


class StaticTakenPredictorSink:
    """Always-taken predictor (vectorized per chunk; ablation baseline)."""

    def __init__(self) -> None:
        self._resolved = 0
        self._mispredicted = 0

    def feed(self, codes: np.ndarray) -> None:
        """Mispredict the not-taken events of one chunk."""
        _, taken = decode_branch_events(check_codes(codes))
        self._resolved += len(taken)
        self._mispredicted += int((taken == 0).sum())

    def finish(self) -> BranchStats:
        """Accumulated prediction statistics."""
        return BranchStats(self._resolved, self._mispredicted)
