"""Requests of each workload and the closed loop that drives them.

A request calls the library through module attributes looked up at call
time (``maxent.solve``, ``cli.main``, ...), so the tracer's wrappers see
every call.  Outputs are checked after the timed span.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import checks

blockcirc = importlib.import_module("circmax.blockcirc")
maxent = importlib.import_module("circmax.maxent")
reciprocal = importlib.import_module("circmax.reciprocal")
identify = importlib.import_module("circmax.identify")
cli = importlib.import_module("circmax.cli")

MAX_REPORTED_FAILURES = 5


@dataclass
class Request:
    spec: dict
    run: object                  # () -> output, timed
    check: object                # output -> None, raises on a wrong output
    prepare: object = None       # () -> None, untimed, before run
    expected_code: int | None = None


def _band(spec):
    return blockcirc.CovBand(spec["m"], spec["n"], spec["lags"])


def _model(spec):
    return reciprocal.ReciprocalModel(spec["m"], spec["n"], spec["N"], spec["M"])


def _extend_request(spec) -> Request:
    band, N = _band(spec), spec["N"]

    def check(result):
        checks.check_extension(spec, result.model.M_blocks, result.sigma_opt.first_col)

    return Request(spec, lambda: maxent.solve(band, N), check)


def _records_request(spec) -> Request:
    model, T, seed, n = _model(spec), spec["T"], spec["sample_seed"], spec["n"]

    def run():
        data = reciprocal.sample(model, T, seed)
        fit = identify.identify(data, n)
        return data, fit, reciprocal.covariance_of_model(fit.model)

    def check(out):
        data, fit, cov = out
        checks.check_records(spec, data.realizations, fit.model.M_blocks, cov.first_col)

    return Request(spec, run, check)


def _blocks_json(blocks):
    return [b.reshape(-1).tolist() for b in blocks]


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _cli_request(spec, workdir: str, index: int) -> Request:
    """One circmax invocation over JSON files in workdir, stdout captured."""
    m, n, kind = spec["m"], spec["n"], spec["kind"]
    base = os.path.join(workdir, f"r{index:02d}")
    out = base + "-out" + (".json" if kind == "cli-sample" else "")
    band_doc = {"m": m, "n": n, "sigma": _blocks_json(spec["lags"])}
    if kind in ("cli-extend", "cli-infeasible"):
        _write_json(base + "-band.json", band_doc)
        argv = ["extend", "--band", base + "-band.json", "--N", str(spec["N"]),
                "--out", out]
    elif kind == "cli-identify":
        data = spec["data"]
        _write_json(base + "-data.json", {
            "m": m, "N": spec["N"], "T": spec["T"],
            "realizations": [r.reshape(-1).tolist() for r in data]})
        argv = ["identify", "--data", base + "-data.json", "--n", str(n), "--out", out]
    elif kind == "cli-sample":
        _write_json(base + "-model.json", {"m": m, "n": n, "N": spec["N"],
                                           "M": _blocks_json(spec["M"])})
        argv = ["sample", "--model", base + "-model.json", "--T", str(spec["T"]),
                "--seed", str(spec["sample_seed"]), "--out", out]
    elif kind == "cli-feasibility":
        _write_json(base + "-band.json", band_doc)
        argv = ["feasibility", "--band", base + "-band.json"]
    elif kind == "cli-verify":
        _write_json(base + "-model.json", {"m": m, "n": n, "N": spec["N"],
                                           "M": _blocks_json(spec["M"])})
        _write_json(base + "-sigma.json", {"m": m, "N": spec["N"],
                                           "first_col": _blocks_json(spec["sigma_col"])})
        argv = ["verify", "--model", base + "-model.json", "--cov", base + "-sigma.json"]
    else:
        raise ValueError(f"unknown request kind {kind!r}")

    def prepare():
        # a stale output from the previous cycle must not pass the check
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(result):
        checks.check_cli(spec, result[0], result[1], out)

    return Request(spec, run, check, prepare,
                   expected_code=2 if kind == "cli-infeasible" else 0)


def build_requests(specs, workdir: str) -> list[Request]:
    """Library-side objects and input files for one cycle of specs."""
    out = []
    for i, spec in enumerate(specs):
        if spec["kind"] == "extend":
            out.append(_extend_request(spec))
        elif spec["kind"] == "records":
            out.append(_records_request(spec))
        else:
            out.append(_cli_request(spec, workdir, i))
    return out


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)   # s, one per attempted request
    cpu: list = field(default_factory=list)         # s of process CPU, all threads
    ok: list = field(default_factory=list)          # 1 if the request passed, else 0
    cycle_ends: list = field(default_factory=list)  # attempted count after each cycle

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.ok) - sum(self.ok)

    def per_cycle(self, values) -> list:
        """Sums of a per-request series over each whole cycle."""
        starts = [0] + self.cycle_ends[:-1]
        return [sum(values[a:b]) for a, b in zip(starts, self.cycle_ends)]


def attempt(req: Request, result: LoopResult, on_request=None) -> None:
    """Run one request in its timed span, then check its output."""
    if req.prepare is not None:
        req.prepare()
    if on_request is not None:
        on_request(result.attempted)
    c0 = time.process_time()
    t0 = time.perf_counter()
    # the loop must keep running: any error, in the request or in checking
    # its output, is a failed request
    try:
        out, error = req.run(), None
    except Exception as exc:
        out, error = None, exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    result.latencies.append(t1 - t0)
    result.cpu.append(c1 - c0)
    if error is None:
        try:
            req.check(out)
        except Exception as exc:
            error = exc
    result.ok.append(int(error is None))
    if error is not None:
        if result.failed <= MAX_REPORTED_FAILURES:
            print(f"request {req.spec['kind']} (m={req.spec['m']}, n={req.spec['n']}) "
                  f"failed: {type(error).__name__}: {error}", file=sys.stderr)


def closed_loop(requests, seconds: float | None = None, cycles: int | None = None,
                on_request=None) -> LoopResult:
    """One client, next request after the previous reply.

    Runs whole cycles of the request list, so every input is served equally
    often: until ``seconds`` of wall time have passed, or ``cycles`` times.
    """
    result = LoopResult()
    start = time.perf_counter()
    while True:
        for req in requests:
            attempt(req, result, on_request)
        result.cycle_ends.append(result.attempted)
        if cycles is not None:
            if len(result.cycle_ends) >= cycles:
                return result
        elif time.perf_counter() - start >= seconds:
            return result
