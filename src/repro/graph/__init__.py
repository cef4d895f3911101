"""Graph compiler: trace-once IR, optimization passes, memory planning, VM.

Submodules are re-exported lazily: :mod:`repro.autodiff.ops` imports
``repro.graph.trace`` at load time (for the zero-cost trace hooks), so this
package's ``__init__`` must not eagerly pull :mod:`repro.graph.vm`, which
imports autodiff back.
"""

from __future__ import annotations

__all__ = [
    "Node",
    "Program",
    "Tape",
    "TraceError",
    "activate",
    "optimize",
    "plan_buffers",
    "BufferPlan",
    "GraphUnsupported",
    "VM",
    "CompiledStep",
    "compile_model_step",
    "trace_callable",
    "plan_cache_clear",
    "plan_cache_stats",
    "MemoryPlan",
    "LayerMemory",
    "plan_protection",
    "plan_policy",
]

_LOCATIONS = {
    "Node": "ir",
    "Program": "ir",
    "Tape": "trace",
    "TraceError": "trace",
    "activate": "trace",
    "optimize": "passes",
    "plan_buffers": "passes",
    "BufferPlan": "passes",
    "GraphUnsupported": "vm",
    "VM": "vm",
    "CompiledStep": "vm",
    "compile_model_step": "vm",
    "trace_callable": "vm",
    "plan_cache_clear": "vm",
    "plan_cache_stats": "vm",
    "MemoryPlan": "planner",
    "LayerMemory": "planner",
    "plan_protection": "planner",
    "plan_policy": "planner",
}


def __getattr__(name: str):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.graph' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
