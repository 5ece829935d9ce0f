"""The shared data-phase slot loop behind every rateless driver.

The fixed-channel, ACK-silenced and mobile drivers are entry points to one
loop; these tests pin what the loop owes all of them: the oracle-view D
check, and identical results from a trajectory that never moves.
"""

import numpy as np
import pytest

from repro.core.config import BuzzConfig
from repro.core.identification import ChannelEstimates
from repro.core.mobile import run_mobile_data_segment
from repro.core.rateless import RatelessDecoder, run_rateless_uplink
from repro.core.silencing import run_rateless_with_silencing
from repro.gen2.timing import GEN2_DEFAULT_TIMING
from repro.nodes.population import make_population
from repro.nodes.reader import ReaderFrontEnd
from repro.phy.channel import ChannelModel, ChannelTrajectory, MobilityModel

MODEL = ChannelModel(mean_snr_db=24.0, near_far_db=8.0, noise_std=0.1)


def _field(k, seed):
    """A population with temporary ids and a recovered view of it.

    The view holds every id with slightly-off channel estimates, sorted by
    id as identification reports them.
    """
    pop = make_population(k, np.random.default_rng(seed), channel_model=MODEL)
    rng = np.random.default_rng(seed + 1)
    for tag in pop.tags:
        tag.draw_temp_id(10 * k * k, rng)
    ids = np.array([tag.temp_id for tag in pop.tags])
    values = pop.channels + 0.01 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    order = np.argsort(ids)
    return pop, ChannelEstimates(ids=ids[order], values=values[order])


@pytest.mark.parametrize("silencing", [False, True])
def test_oracle_view_d_divergence_raises(monkeypatch, silencing):
    """A reader whose regenerated D differs from the tags' schedule by one
    bit must stop the run, with or without silencing."""
    pop, _ = _field(6, 0)
    original = RatelessDecoder.expected_rows

    def one_bit_off(self, slots):
        rows = original(self, slots).copy()
        rows[0, 0] ^= 1
        return rows

    monkeypatch.setattr(RatelessDecoder, "expected_rows", one_bit_off)
    driver = run_rateless_with_silencing if silencing else run_rateless_uplink
    with pytest.raises(RuntimeError, match="D regeneration diverged"):
        driver(pop.tags, ReaderFrontEnd(noise_std=0.1), np.random.default_rng(0))


@pytest.mark.parametrize(
    "silencing, k, seed",
    # Seeds chosen so the transfer ends at a slot count L where
    # L·P·symbol_s and L·(P·symbol_s) round differently for P = 37.
    [(False, 8, 2), (True, 14, 9)],
)
def test_zero_rate_trajectory_matches_fixed_channels(silencing, k, seed):
    """A mobile segment on a trajectory that never moves, with every tag
    participating and no stall monitor, is the fixed-channel data phase on
    the same recovered view — bit for bit, airtime included."""
    pop, estimates = _field(k, seed)
    fe = ReaderFrontEnd(noise_std=0.1)
    k_hat = len(estimates)
    max_slots = BuzzConfig().max_data_slots(k_hat)
    id_space = 10 * k * k
    view = dict(
        k_hat=k_hat,
        max_slots=max_slots,
        decoder_seeds=estimates.seeds(),
        channel_estimates=estimates.values,
    )
    if silencing:
        fixed = run_rateless_with_silencing(
            pop.tags, fe, np.random.default_rng(seed), id_space=id_space, **view
        )
    else:
        fixed = run_rateless_uplink(pop.tags, fe, np.random.default_rng(seed), **view)
    mobile = run_mobile_data_segment(
        pop.tags,
        fe,
        np.random.default_rng(seed),
        estimates=estimates,
        trajectory=ChannelTrajectory(pop.channels, MobilityModel(), np.random.default_rng(0)),
        participants=np.ones(k, dtype=bool),
        start_s=0.0,
        k_hat=k_hat,
        max_slots=max_slots,
        stall_limit=None,
        silencing=silencing,
        id_space=id_space,
    )

    n_positions = pop.messages.shape[1]
    symbol_s = 1.0 / GEN2_DEFAULT_TIMING.uplink_rate_bps
    slots = fixed.slots_used
    assert slots * n_positions * symbol_s != slots * (n_positions * symbol_s)
    assert fixed.decoded_mask.all()
    assert np.array_equal(mobile.verified, fixed.decoded_mask)
    assert np.array_equal(mobile.messages, fixed.messages)
    assert mobile.slots_used == fixed.slots_used
    assert np.array_equal(mobile.transmissions, fixed.transmissions)
    assert mobile.progress == fixed.progress
    assert mobile.duration_s == fixed.duration_s
    assert mobile.ack_overhead_s == fixed.ack_overhead_s
    assert not mobile.stalled
