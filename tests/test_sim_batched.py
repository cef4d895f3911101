"""Simulator reports pinned to the former compiled/batched update path.

The simulator once had a second update producer that ran the pseudo-update
on a batched graph VM (``compile=True, client_batch=B``).  It was deleted in
favour of the single flat producer; these digests are the sha256 of the
``sort_keys`` report JSON that path produced at each client batch size, on
the case matrix it was checked against.  The single path must keep
reproducing them byte for byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import simulate


def _report_sha(**kwargs) -> str:
    report = json.dumps(simulate(**kwargs), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest()


class TestByteIdentity:
    CASES = [
        dict(clients=48, rounds=2, seed=11, cohort=16),
        dict(
            clients=48,
            rounds=2,
            seed=12,
            cohort=16,
            byzantine=0.25,
            attack="gauss_noise",
            rule="median",
        ),
        dict(
            clients=64,
            rounds=2,
            seed=13,
            cohort=24,
            byzantine=0.2,
            attack="scale",
            max_norm=0.5,
            clip=True,
            shards=2,
            dropout=0.1,
            straggler=0.1,
        ),
    ]
    # (client_batch, case) -> report digest of the compiled/batched run.
    COMPILED = {
        (batch, 0): "56b7d392c72ded007e31bc74e70a96a1ef30ab210dfce488606ce9ad45b2161a"
        for batch in (1, 8, 64)
    } | {
        (batch, 1): "67b357605cfe7f3e2abba7e30849150c1c6627f1b1f8718480a4f5db83bbba18"
        for batch in (1, 8, 64)
    } | {
        (batch, 2): "903c76e78dba06df0cf4ec2d0be5d19c914413f2099bfc980245d2dadabd98a8"
        for batch in (1, 8, 64)
    }

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_compiled_report_identical(self, case, batch):
        assert _report_sha(**self.CASES[case]) == self.COMPILED[batch, case]
