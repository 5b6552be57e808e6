"""Run one squeezelab CLI call in this process with spans around its layers.

    python3 perfbench/traced.py --spans SPANS.json -- sweep --n 3 ...

Wrappers are installed around the public functions of squeezelab's
fock, evolve, algebra and cli modules, in every squeezelab module
namespace that bound them, and then ``squeezelab.cli.main(argv)`` runs.
A span records name, start, end, parent and thread.  Span stacks are
thread-local; work submitted to the sweep's thread pool inherits the
submitting span as its parent.  Spans stay in memory and are written to
SPANS.json at exit.  Nothing in the package itself is changed.

Imported without ``__main__``, the module installs nothing; it offers
:func:`layer_metrics`, which turns written spans into per-layer numbers,
and :func:`dominant_layer`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

ROOT_SPAN = "cli.main"
INIT_SPAN = "evolve.propagator_init"
EIGEN_SPAN = "evolve.eigensolve"

# (module, attribute path, span name).  A dotted path names a class attribute.
TARGETS = [
    ("squeezelab.evolve", "VacuumSectorPropagator.__init__", INIT_SPAN),
    ("squeezelab.evolve", "VacuumSectorPropagator.chain_amplitudes", "evolve.chain_amplitudes"),
    ("squeezelab.evolve", "VacuumSectorPropagator.state", "evolve.state"),
    ("squeezelab.evolve", "VacuumSectorPropagator.mean_photon", "evolve.diagnostics"),
    ("squeezelab.evolve", "StateVector.norm", "evolve.diagnostics"),
    ("squeezelab.evolve", "StateVector.norm_error", "evolve.diagnostics"),
    ("squeezelab.evolve", "mean_photon", "evolve.diagnostics"),
    ("squeezelab.evolve", "leakage", "evolve.diagnostics"),
    ("squeezelab.evolve", "sweep_photon_number", "evolve.sweep"),
    ("squeezelab.evolve", "converged_region", "evolve.converged_region"),
    ("squeezelab.evolve", "apply_exp_generator", "evolve.krylov"),
    ("squeezelab.fock", "generator", "fock.generator"),
    ("squeezelab.algebra", "coefficients", "algebra.coefficients"),
    ("squeezelab.algebra", "commutator", "algebra.commutator"),
    ("squeezelab.algebra", "multiply", "algebra.multiply"),
    ("squeezelab.algebra", "verify_closed_form", "algebra.verify_closed_form"),
    ("squeezelab.algebra", "CoefficientSeries.to_csv", "cli.serialize"),
    ("squeezelab.evolve", "SweepResult.to_csv", "cli.serialize"),
    ("squeezelab.cli", "_write", "cli.serialize"),
]

_spans: list[tuple] = []  # (id, name, parent, thread, start, end, thread_cpu, attrs)
_ids = itertools.count(1)
_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _parent() -> tuple | None:
    stack = _stack()
    return stack[-1] if stack else getattr(_local, "inherited", None)


def _run_span(name, fn, args, kwargs, attrs=None):
    parent = _parent()
    sid = next(_ids)
    stack = _stack()
    stack.append((sid, name))
    result = None
    cpu = time.thread_time()
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
        return result
    finally:
        end = time.perf_counter()
        cpu = time.thread_time() - cpu
        stack.pop()
        extra = attrs(args, result) if attrs and result is not None else None
        _spans.append((sid, name, parent and parent[0], threading.get_ident(), start, end,
                       cpu, extra))


def spanned(name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _run_span(name, fn, args, kwargs, attrs)
    return wrapper


def _eigensolve(fn):
    """eigh_tridiagonal gets a span only when it builds a propagator's chain."""
    def nbytes(args, result):
        return {"bytes": sum(getattr(part, "nbytes", 0) for part in result)}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _parent()
        if parent is None or parent[1] != INIT_SPAN:
            return fn(*args, **kwargs)
        return _run_span(EIGEN_SPAN, fn, args, kwargs, nbytes)
    return wrapper


def _multiply_attrs(args, result):
    return {"pairs": len(args[0].terms) * len(args[1].terms)}


def _commutator_attrs(args, result):
    return {"terms": len(result.terms)}


ATTRS = {"algebra.multiply": _multiply_attrs, "algebra.commutator": _commutator_attrs}


class _TracedPool(ThreadPoolExecutor):
    """A thread pool whose tasks inherit the submitting thread's open span."""

    def submit(self, fn, /, *args, **kwargs):
        parent = _parent()

        def task(*a, **k):
            _local.inherited = parent
            try:
                return fn(*a, **k)
            finally:
                _local.inherited = None

        return super().submit(task, *args, **kwargs)


def _rebind(original, replacement) -> None:
    """Replace `original` in every squeezelab module namespace that bound it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "squeezelab" or mod_name.startswith("squeezelab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> list[str]:
    """Install every wrapper; returns the targets this version does not have."""
    import squeezelab.cli as cli

    missing = []
    for mod_name, path, name in TARGETS:
        try:
            module = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            missing.append(mod_name)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{mod_name}.{path}")
            continue
        if isinstance(original, property):
            setattr(owner, attr, property(spanned(name, original.fget)))
        elif owner_name:
            setattr(owner, attr, spanned(name, original, ATTRS.get(name)))
        else:
            _rebind(original, spanned(name, original, ATTRS.get(name)))

    import squeezelab.evolve as evolve

    if hasattr(evolve, "eigh_tridiagonal"):
        _rebind(evolve.eigh_tridiagonal, _eigensolve(evolve.eigh_tridiagonal))
    else:
        missing.append("squeezelab.evolve.eigh_tridiagonal")
    if hasattr(evolve, "ThreadPoolExecutor"):
        evolve.ThreadPoolExecutor = _TracedPool
    if hasattr(cli, "json"):
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = spanned("cli.serialize", cli.json.dumps)
        cli.json = proxy
    return missing


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Layer groups compared to find the dominant layer of a workload.
LAYERS = {
    "evolve.chain_amplitudes_s": ["evolve.chain_amplitudes_s"],
    "evolve.chain_construction": ["evolve.eigensolve_s", "evolve.chain_build_s"],
    "evolve.state_s": ["evolve.state_s"],
    "evolve.diagnostics_s": ["evolve.diagnostics_s"],
    "evolve.sweep_s": ["evolve.sweep_s"],
    "evolve.converged_region_s": ["evolve.converged_region_s"],
    "evolve.krylov_s": ["evolve.krylov_s"],
    "fock.generator_s": ["fock.generator_s"],
    "algebra.coefficients_s": ["algebra.coefficients_s"],
    "algebra.commutator_s": ["algebra.commutator_s"],
    "algebra.multiply_s": ["algebra.multiply_s"],
    "algebra.verify_closed_form_s": ["algebra.verify_closed_form_s"],
    "cli.serialize_s": ["cli.serialize_s"],
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times (summed over threads), call counts and work counts.

    Self time is a span's duration minus the time its child spans cover.
    Self CPU time is the span thread's CPU time minus that of its children
    on the same thread; the gap to self time is time spent waiting, for
    instance for the interpreter lock.
    """
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append(span)
    self_s: dict[str, float] = {}
    self_cpu_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, name, _, thread, start, end, cpu, _ in spans:
        kids = children.get(sid, [])
        covered = _union_length(
            [(max(k[4], start), min(k[5], end)) for k in kids if k[5] > start and k[4] < end]
        )
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        self_cpu_s[name] = self_cpu_s.get(name, 0.0) + cpu - sum(
            k[6] for k in kids if k[3] == thread
        )
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def attr_values(name, key):
        return [span[7][key] for span in spans if span[1] == name and span[7]]

    init_calls = calls.get(INIT_SPAN, 0)
    eigen_calls = calls.get(EIGEN_SPAN, 0)
    return {
        "evolve.chain_amplitudes_s": self_s.get("evolve.chain_amplitudes", 0.0),
        "evolve.chain_amplitudes_calls": calls.get("evolve.chain_amplitudes", 0),
        "evolve.propagator_init_s": total_s.get(INIT_SPAN, 0.0),
        "evolve.propagator_init_calls": init_calls,
        "evolve.eigensolve_s": total_s.get(EIGEN_SPAN, 0.0),
        "evolve.eigensolve_calls": eigen_calls,
        "evolve.chain_build_s": self_s.get(INIT_SPAN, 0.0),
        "evolve.chain_build_cpu_s": self_cpu_s.get(INIT_SPAN, 0.0),
        "evolve.eigvecs_bytes": sum(attr_values(EIGEN_SPAN, "bytes")),
        "evolve.chain_cache_hit_ratio": 1 - eigen_calls / init_calls if init_calls else 0.0,
        "evolve.state_s": self_s.get("evolve.state", 0.0),
        "evolve.diagnostics_s": self_s.get("evolve.diagnostics", 0.0),
        "evolve.sweep_s": self_s.get("evolve.sweep", 0.0),
        "evolve.converged_region_s": self_s.get("evolve.converged_region", 0.0),
        "evolve.krylov_s": self_s.get("evolve.krylov", 0.0),
        "evolve.krylov_calls": calls.get("evolve.krylov", 0),
        "fock.generator_s": self_s.get("fock.generator", 0.0),
        "algebra.coefficients_s": self_s.get("algebra.coefficients", 0.0),
        "algebra.commutator_s": self_s.get("algebra.commutator", 0.0),
        "algebra.multiply_s": self_s.get("algebra.multiply", 0.0),
        "algebra.multiply_calls": calls.get("algebra.multiply", 0),
        "algebra.multiply_term_pairs": sum(attr_values("algebra.multiply", "pairs")),
        "algebra.max_terms": max(attr_values("algebra.commutator", "terms"), default=0),
        "algebra.verify_closed_form_s": self_s.get("algebra.verify_closed_form", 0.0),
        "cli.serialize_s": self_s.get("cli.serialize", 0.0),
        "cli.main_s": total_s.get(ROOT_SPAN, 0.0),
    }


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: sum(metrics[m] for m in LAYERS[layer]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    missing = install()
    if missing:
        print(f"traced: not in this version, left unwrapped: {missing}", file=sys.stderr)
    from squeezelab import cli

    code = None
    try:
        code = _run_span(ROOT_SPAN, cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        with open(args.spans, "w") as handle:
            json.dump({"exit": code, "missing": missing, "spans": _spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
