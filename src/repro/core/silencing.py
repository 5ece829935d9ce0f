"""The §8.2 design alternative: ACK-silencing decoded tags.

Buzz deliberately lets tags keep transmitting after their message has been
decoded, because silencing a tag requires the reader to ACK it by echoing
its temporary id — downlink time the paper estimates at ~75 % of the uplink
transfer for 14 tags. Silencing is a reader *policy* on top of the same
data-phase slot loop as :func:`repro.core.rateless.run_rateless_uplink`,
so the trade-off can be measured rather than asserted:

* after each decode round the reader transmits one ACK per *newly*
  verified tag (at downlink rate, echoing the temporary id), and silenced
  tags drop out of all later slots;
* silenced tags save transmit energy and reduce later collision depth, but
  every ACK costs wall-clock time and the remaining tags' code becomes
  denser-per-capita only slowly.

The ablation bench compares total transfer time and per-tag transmissions
with and without silencing, reproducing the paper's conclusion that the
ACK overhead outweighs the benefit at these message sizes. The variant is
also registered as the ``silenced`` scheme in :mod:`repro.engine.schemes`,
so any campaign, figure driver, or ``python -m repro --schemes silenced``
invocation can sweep it alongside the paper's three schemes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.coding.crc import CRC5_GEN2, CrcSpec
from repro.core.config import BuzzConfig
from repro.core.rateless import RatelessRunResult, _fixed_field, _run_data_phase
from repro.gen2.timing import GEN2_DEFAULT_TIMING, LinkTiming
from repro.nodes.reader import ReaderFrontEnd
from repro.nodes.tag import BackscatterTag

__all__ = ["run_rateless_with_silencing", "ack_duration_s"]


def ack_duration_s(id_space: int, timing: LinkTiming = GEN2_DEFAULT_TIMING) -> float:
    """Time for one silencing ACK: echo of a temporary id plus framing.

    The id needs ``ceil(log2(id_space))`` bits; the ACK adds a 2-bit
    command prefix (mirroring Gen-2's ACK framing) and a T1 turnaround on
    each side.
    """
    id_bits = max(1, math.ceil(math.log2(max(2, id_space))))
    return timing.downlink_s(id_bits + 2) + 2 * timing.t1_s


def run_rateless_with_silencing(
    tags: Sequence[BackscatterTag],
    front_end: ReaderFrontEnd,
    rng: np.random.Generator,
    k_hat: Optional[int] = None,
    crc: Optional[CrcSpec] = CRC5_GEN2,
    config: BuzzConfig = BuzzConfig(),
    timing: LinkTiming = GEN2_DEFAULT_TIMING,
    max_slots: Optional[int] = None,
    id_space: Optional[int] = None,
    channel_estimates: Optional[Sequence[complex]] = None,
    decoder_seeds: Optional[Sequence[int]] = None,
) -> RatelessRunResult:
    """Rateless uplink where verified tags are ACKed and go silent.

    Semantics match :func:`repro.core.rateless.run_rateless_uplink` except
    that the reader decodes after every slot, and after any decode round
    that verifies new messages it spends ``ack_duration_s`` per new message
    (reported as ``ack_overhead_s`` and included in ``duration_s``) and
    those tags stop participating in subsequent slots. The decoder
    regenerates D with the silenced set masked out (the reader knows
    exactly whom it ACKed).

    ``channel_estimates``/``decoder_seeds`` select a non-oracle reader view
    exactly as in :func:`~repro.core.rateless.run_rateless_uplink`: the
    decoder (and the ACKs) run over the recovered ids, a tag falls silent
    when it hears its own temporary id ACKed, and unrecovered tags keep
    transmitting into slots the reader cannot explain.
    """
    space = id_space if id_space is not None else 10 * len(tags) ** 2
    return _run_data_phase(
        tags,
        front_end,
        rng,
        crc=crc,
        config=config,
        timing=timing,
        ack_s=ack_duration_s(space, timing),
        **_fixed_field(tags, k_hat, channel_estimates, decoder_seeds, config, max_slots),
    )
