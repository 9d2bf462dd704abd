"""Spans at the library's layer boundaries, and the per-layer report.

The tracer replaces module-global names through which one module calls
another (and through which the benchmark calls the library) with timing
wrappers, and puts the originals back afterwards.  Calls a module makes
to its own functions without going through one of these names are not
traced.  Each span records its name, the module whose name was patched,
start, end, parent span and request id; counts that ratios need (Newton
iterations, probe results, bytes, values) are taken at the same boundary.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module whose global is replaced, attribute, span name).  A site whose
# attribute no longer exists is skipped, so internal refactors of the
# library do not break the benchmark.
SITES = [
    ("circmax.maxent", "solve", "maxent.solve"),
    ("circmax.identify", "solve", "maxent.solve"),
    ("circmax.cli", "solve", "maxent.solve"),
    ("circmax.maxent", "is_strictly_positive", "blockcirc.is_strictly_positive"),
    ("circmax.identify", "is_strictly_positive", "blockcirc.is_strictly_positive"),
    ("circmax.maxent", "spectral_bounds", "blockcirc.spectral_bounds"),
    ("circmax.feasibility", "spectral_bounds", "blockcirc.spectral_bounds"),
    ("circmax.maxent", "logdet", "blockcirc.logdet"),
    ("circmax.identify", "logdet", "blockcirc.logdet"),
    ("circmax.maxent", "assemble_banded", "blockcirc.assemble_banded"),
    ("circmax.reciprocal", "assemble_banded", "blockcirc.assemble_banded"),
    ("circmax.reciprocal", "band_residual", "blockcirc.band_residual"),
    ("circmax.reciprocal", "dft_block_diagonalize", "blockcirc.dft_block_diagonalize"),
    ("circmax.reciprocal", "inverse", "blockcirc.inverse"),
    ("circmax.reciprocal", "is_positive_definite", "blockcirc.is_positive_definite"),
    ("circmax.maxent", "block_levinson", "feasibility.block_levinson"),
    ("circmax.feasibility", "block_levinson", "feasibility.block_levinson"),
    ("circmax.maxent", "ar_extend", "feasibility.ar_extend"),
    ("circmax.feasibility", "ar_extend", "feasibility.ar_extend"),
    ("circmax.maxent", "wrap_sequence", "feasibility.wrap_sequence"),
    ("circmax.feasibility", "wrap_sequence", "feasibility.wrap_sequence"),
    ("circmax.maxent", "feasibility_certificate", "feasibility.feasibility_certificate"),
    ("circmax.cli", "feasibility_certificate", "feasibility.feasibility_certificate"),
    ("circmax.reciprocal", "sample", "reciprocal.sample"),
    ("circmax.cli", "sample", "reciprocal.sample"),
    ("circmax.cli", "verify_model", "reciprocal.verify_model"),
    ("circmax.reciprocal", "covariance_of_model", "reciprocal.covariance_of_model"),
    ("circmax.identify", "identify", "identify.identify"),
    ("circmax.cli", "identify", "identify.identify"),
    ("circmax.identify", "sufficient_statistics", "identify.sufficient_statistics"),
    ("circmax.identify", "log_likelihood", "identify.log_likelihood"),
    ("circmax.cli", "main", "cli.main"),
    ("circmax._jsonio", "dump", "cli.json_write"),
    ("circmax._jsonio", "dumps", "cli.json_write"),
    ("circmax._jsonio", "load", "cli.json_read"),
]

CLI_COMMANDS = ("extend", "identify", "sample", "feasibility", "verify")


class Span(NamedTuple):
    id: int
    name: str
    site: str
    start: float
    end: float
    parent: int      # -1 at the top of a request
    request: int
    info: object     # boundary count, see _INFO

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(args, result, exc):
    diag = result.diagnostics if exc is None else getattr(exc, "diagnostics", None)
    return (diag.iterations if diag is not None else 0,
            bool(diag is not None and diag.converged),
            None if exc is None else type(exc).__name__)


def _certificate_info(args, result, exc):
    trace = result.min_eig_trace if exc is None else getattr(exc, "min_eig_trace", {})
    return len(trace)


def _sample_info(args, result, exc):
    return 0 if exc is not None else result.T * result.N * result.m


def _stats_info(args, result, exc):
    data = args[0]
    return data.T * data.N * data.m


def _write_info(args, result, exc):
    if exc is not None:
        return 0
    return len(result) if isinstance(result, str) else os.path.getsize(args[1])


def _read_info(args, result, exc):
    return os.path.getsize(args[0]) if exc is None else 0


def _cli_info(args, result, exc):
    argv = args[0] if args else None
    return (argv[0] if argv else None, result)


_INFO = {
    "maxent.solve": _solve_info,
    "feasibility.feasibility_certificate": _certificate_info,
    "reciprocal.sample": _sample_info,
    "identify.sufficient_statistics": _stats_info,
    "cli.json_write": _write_info,
    "cli.json_read": _read_info,
    "cli.main": _cli_info,
}


class Tracer:
    """Installs the wrappers; collects spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def set_request(self, request_id: int) -> None:
        self.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str):
        info_of = _INFO.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                info = info_of(args, None, exc) if info_of else None
                spans.append(Span(span_id, name, site, start, end, parent, self.request, info))
                raise
            end = clock()
            stack.pop()
            info = info_of(args, result, None) if info_of else None
            spans.append(Span(span_id, name, site, start, end, parent, self.request, info))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, module_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id name site start end parent request info."""
        with open(path, "w") as fh:
            fh.write("id\tname\tsite\tstart\tend\tparent\trequest\tinfo\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(f"{s.id}\t{s.name}\t{s.site}\t{s.start:.9f}\t{s.end:.9f}\t"
                         f"{s.parent}\t{s.request}\t{s.info}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def layer_metrics(spans, expected_codes) -> dict:
    """Per-layer metrics from one traced pass.

    ``expected_codes`` maps a request id to the exit code its CLI call
    should return.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    by_id = {}
    for s in spans:
        by_name[s.name].append(s)
        by_id[s.id] = s
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in by_name[name])

    def outermost(name):
        return [s for s in by_name[name]
                if s.parent < 0 or by_id[s.parent].name != name]

    solves = by_name["maxent.solve"]
    iters = sum(s.info[0] for s in solves)
    solve_busy = busy("maxent.solve")
    probes = sum(1 for s in by_name["blockcirc.spectral_bounds"]
                 if s.site == "circmax.feasibility")
    useful = sum(s.info for s in by_name["feasibility.feasibility_certificate"])
    sample_busy = busy("reciprocal.sample")
    stats_busy = busy("identify.sufficient_statistics")
    writes = outermost("cli.json_write")
    write_busy = sum(s.duration for s in writes)
    write_bytes = sum(s.info for s in writes)
    reads = outermost("cli.json_read")
    cli_calls = by_name["cli.main"]

    out = {
        "maxent.solve_calls": len(solves),
        "maxent.solve_busy_s": solve_busy,
        "maxent.solve_self_s": self_time("maxent.solve"),
        "maxent.solve_p50_ms": _p50_ms(solves),
        "maxent.newton_iters": iters,
        "maxent.ms_per_iter": _ratio(1e3 * solve_busy, iters),
        "maxent.converged_ratio": _ratio(sum(1 for s in solves if s.info[1]), len(solves)),
        "maxent.infeasible_s": sum(s.duration for s in solves
                                   if s.info[2] == "InfeasibleExtensionError"),
        "blockcirc.calls": sum(len(v) for k, v in by_name.items()
                               if k.startswith("blockcirc.")),
        "blockcirc.busy_s": sum(busy(k) for k in by_name if k.startswith("blockcirc.")),
        "blockcirc.spectral_bounds_calls": len(by_name["blockcirc.spectral_bounds"]),
        "feasibility.certificate_calls": len(by_name["feasibility.feasibility_certificate"]),
        "feasibility.certificate_busy_s": busy("feasibility.feasibility_certificate"),
        "feasibility.levinson_busy_s": busy("feasibility.block_levinson"),
        "feasibility.probes": probes,
        "feasibility.useful_probes": useful,
        "feasibility.useful_probe_ratio": _ratio(useful, probes),
        "reciprocal.sample_busy_s": sample_busy,
        "reciprocal.sample_values_per_s": _ratio(
            sum(s.info for s in by_name["reciprocal.sample"]), sample_busy),
        "reciprocal.verify_busy_s": busy("reciprocal.verify_model"),
        "reciprocal.covariance_of_model_busy_s": busy("reciprocal.covariance_of_model"),
        "identify.stats_busy_s": stats_busy,
        "identify.stats_values_per_s": _ratio(
            sum(s.info for s in by_name["identify.sufficient_statistics"]), stats_busy),
        "identify.identify_self_s": self_time("identify.identify"),
        "identify.log_likelihood_busy_s": busy("identify.log_likelihood"),
        "cli.json_write_busy_s": write_busy,
        "cli.json_write_bytes": write_bytes,
        "cli.json_write_mb_per_s": _ratio(write_bytes / 1e6, write_busy),
        "cli.json_read_busy_s": sum(s.duration for s in reads),
        "cli.json_read_bytes": sum(s.info for s in reads),
        "cli.exit_code_mismatches": sum(
            1 for s in cli_calls if s.info[1] != expected_codes.get(s.request)),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_p50_ms"] = _p50_ms(
            [s for s in cli_calls if s.info[0] == command])
    return out
