"""Microbenchmark: LeNet-5 train-step time, composed vs fused conv2d kernels.

Writes the per-step times of both conv2d paths and their ratio into
``BENCH_kernels.json``, together with the kernel workspace's cache
statistics for the run.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py [--quick] [--out PATH]

``--quick`` shrinks the step count for a smoke run (seconds, used by the
``perf``-marked test); the default configuration is the number that
belongs in the repo's perf trajectory.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# Pin BLAS threading before numpy loads: single-threaded GEMM keeps the
# composed/fused comparison apples-to-apples.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402
from common import write_result  # noqa: E402

from repro.autodiff import functional as F, get_workspace  # noqa: E402
from repro.nn import SGD, lenet5, one_hot  # noqa: E402

DEFAULT_OUT = _REPO_ROOT / "BENCH_kernels.json"


def _train_steps(model, x, y, lr: float, steps: int) -> float:
    """Time ``steps`` full train steps (forward, backward, SGD update)."""
    optimizer = SGD([p for layer in model.layers for p in layer.parameters()], lr=lr)
    start = time.perf_counter()
    for _ in range(steps):
        _, grads = model.loss_and_gradients(x, y)
        optimizer.step(
            [
                grads[li][key]
                for li, layer in enumerate(model.layers)
                for key in sorted(layer.params)
            ]
        )
    return time.perf_counter() - start


def bench_conv_step(steps: int, batch_size: int = 32, warmup: int = 2, seed: int = 0):
    """Per-step time of a LeNet-5 train step: composed vs fused conv2d."""
    num_classes = 10
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch_size, 3, 32, 32))
    y = one_hot(rng.integers(0, num_classes, size=batch_size), num_classes)
    results = {}
    for label, fused in (("composed", False), ("fused", True)):
        previous = F.set_fused_conv(fused)
        try:
            model = lenet5(num_classes=num_classes, seed=seed)
            _train_steps(model, x, y, lr=0.05, steps=warmup)
            elapsed = _train_steps(model, x, y, lr=0.05, steps=steps)
        finally:
            F.set_fused_conv(previous)
        results[f"{label}_step_ms"] = elapsed / steps * 1e3
    results["speedup"] = results["composed_step_ms"] / results["fused_step_ms"]
    results["steps"] = steps
    results["batch_size"] = batch_size
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    workspace = get_workspace()
    workspace.clear()
    conv = bench_conv_step(steps=4 if args.quick else 12)
    write_result(args.out, {"conv_step": conv, "workspace": workspace.stats()})
    print(
        f"conv train-step: composed {conv['composed_step_ms']:.1f} ms, "
        f"fused {conv['fused_step_ms']:.1f} ms ({conv['speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
