"""Simulator pseudo-updates against an independent per-layer reference.

``FLSimulator._make_update`` draws one flat noise vector per (round or
dispatch, client) and computes the delta on flat parameter vectors.  This
suite recomputes every update a run produced with the per-layer formula:
per-parameter draws from ``default_rng((seed, stream, key, client))`` in
each layer's items order, ``drift * (teacher - global) + update_scale *
noise`` per parameter and, for a Byzantine client, the attack applied to
the sorted-key flat delta.  Every update must match it bitwise — honest and
Byzantine clients, sync rounds and async dispatches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import simulate
from repro.fl.transport import ClientUpdate
from repro.nn.serialize import flatten_weights, unflatten_weights
from repro.sim import FaultRates
from repro.sim.engine import _STREAM_UPDATE

CASES = [
    dict(num_clients=48, rounds=2, seed=11, cohort=16),
    dict(
        num_clients=48,
        rounds=2,
        seed=12,
        cohort=16,
        byzantine=0.25,
        attack="gauss_noise",
        rule="median",
    ),
    dict(
        num_clients=64,
        rounds=2,
        seed=13,
        cohort=24,
        byzantine=0.2,
        attack="scale",
        max_norm=0.5,
        clip=True,
        shards=2,
    ),
]
# Infrastructure faults of the last case (retries re-produce updates).
RATES = [None, None, FaultRates(dropout=0.1, straggler=0.1, corrupt=0.1)]


def reference_update(sim, key, client, global_weights):
    """The per-layer pseudo-update, written independently of the engine."""
    cfg = sim.config
    rng = np.random.default_rng((cfg.seed, _STREAM_UPDATE, key, client))
    delta = [
        {
            name: cfg.drift * (sim.teacher_weights[i][name] - value)
            + cfg.update_scale * rng.standard_normal(value.shape)
            for name, value in layer.items()
        }
        for i, layer in enumerate(global_weights)
    ]
    if sim.fault_plan.attack_for(client) is not None:
        flat = sim.fault_plan.attack_delta(key, client, flatten_weights(delta))
        delta = unflatten_weights(flat, global_weights)
    return [
        {name: value + delta[i][name] for name, value in layer.items()}
        for i, layer in enumerate(global_weights)
    ]


def record_updates(sim):
    """Wrap the simulator's update producer; return the call log."""
    produced = []
    make_update = sim._make_update

    def recording(key, client, global_flat):
        update = make_update(key, client, global_flat)
        produced.append((key, client, global_flat.copy(), update))
        return update

    sim._make_update = recording
    return produced


def in_items_order(flat, template):
    """``flat`` (sorted-key order) as weights keyed like ``template``."""
    by_sorted_key = unflatten_weights(flat, template)
    return [
        {name: by_sorted_key[i][name] for name in layer}
        for i, layer in enumerate(template)
    ]


class TestUpdateReference:
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_updates_match_reference(self, mode, case, sim_factory):
        settings = dict(CASES[case], async_mode=mode == "async")
        with sim_factory(rates=RATES[case], **settings) as sim:
            produced = record_updates(sim)
            sim.run()
            template = sim.model.get_weights()
            byzantine = 0
            for key, client, global_flat, update in produced:
                expected = reference_update(
                    sim, key, client, in_items_order(global_flat, template)
                )
                assert [list(layer) for layer in update.plain_weights] == [
                    list(layer) for layer in template
                ]
                for got, want in zip(update.plain_weights, expected):
                    for name in want:
                        np.testing.assert_array_equal(got[name], want[name])
                np.testing.assert_array_equal(
                    update.flat_weights, flatten_weights(expected)
                )
                assert update.cycle == key
                assert update.num_samples == int(sim.num_samples[client])
                assert update.wire_bytes() == ClientUpdate(
                    client_id=f"sim-{client}",
                    cycle=key,
                    num_samples=update.num_samples,
                    plain_weights=expected,
                ).wire_bytes()
                byzantine += sim.fault_plan.attack_for(client) is not None
        assert len(produced) >= sim.config.cohort
        if sim.config.byzantine > 0:
            assert 0 < byzantine < len(produced)
        else:
            assert byzantine == 0


# Digests recorded when the engine itself produced updates with the
# per-layer formula above; a change here means the update stream moved.
FAULTY = dict(
    clients=64,
    rounds=3,
    seed=13,
    cohort=24,
    byzantine=0.2,
    attack="scale",
    max_norm=0.5,
    clip=True,
    shards=2,
    dropout=0.1,
    straggler=0.1,
    corrupt=0.1,
)
PINNED = {
    "sync": (
        dict(FAULTY),
        "f99fdf6eec845af9f6262283879e75db70e912b36828145a0f5e5e739617be80",
    ),
    "async": (
        dict(FAULTY, async_mode=True, staleness="polynomial"),
        "f31ae3b5101308b6ed998c6e858fcfa88d5cc1d0032e2eca27002741a5e45b65",
    ),
}


class TestPinnedWeights:
    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_weights_pinned(self, mode):
        kwargs, digest = PINNED[mode]
        assert simulate(**kwargs)["weights_sha256"] == digest
