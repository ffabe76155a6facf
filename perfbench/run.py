"""Layered benchmark for citbdd: set-up, generation and verification.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth-t3-up --seed 1 --seconds 25 --trace 0

The benchmark makes the workload's models as model-file text from the seed
and runs every instance through the public API (``parse_model``,
``build_handler``, ``generate``, ``verify``) in rounds until ``--seconds``
have passed.  Each time is the median over the rounds, summed over the
instances.  One JSON record per instance and round goes to standard output
as soon as it finishes; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts instances and ``failed`` those that raised or failed a
correctness gate.  After the measured rounds every instance's suite must:

* verify under a handler kind other than the one that generated it;
* equal, row for row, the suite that other kind generates;
* survive a round trip through the CLI's suite CSV writer and reader;
* for synth20 at t=3, have 143 rows from 32,981 checks in ``generate``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` traced and untraced rounds alternate: the traced ones
take ``build_handler`` apart into its layer calls and time each call, and
each check, in a span; the per-layer metrics of BENCHMARK.json come from
them, and ``trace.overhead_s`` is traced minus untraced generate time.
Spans are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    from citbdd import (
        HANDLER_AND, HANDLER_PARTIAL_DOWN, HANDLER_PARTIAL_UP, QuantOrder,
        build_handler, generate, parse_model, verify,
    )
    from citbdd.cli import read_suite_csv, write_suite_csv
except ImportError as exc:
    sys.exit(f"perfbench: cannot import citbdd from {ROOT / 'src'}: {exc}")

import instances
import tracing

UP, DOWN, AND = HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN, HANDLER_AND

# Exact figures for synth20 at t=3, the same under every handler kind:
# suite rows and is_valid calls made by generate.
ANCHORS = {("synth20", 3): (143, 32981)}

# Checks replayed for the per-step split of one check, spread evenly over
# the check stream of the workload's first instance.
REPLAY_CHECKS = 2000

# Least total time spent setting up one instance in one round.
SETUP_MIN_S = 0.1


@dataclass(frozen=True)
class Instance:
    model: str    # model name, unique within a workload
    text: str     # model-file text
    t: int
    kind: str     # handler kind that generates the suite
    partner: str  # another handler kind the correctness gates compare with

    @property
    def name(self) -> str:
        return f"{self.model}/t{self.t}/{self.kind}"


def _synth_t3(seed: int, kind: str, partner: str) -> list[Instance]:
    """synth20 plus two synth-style models of 22 and 24 parameters, at t=3.

    The instances depend on the seed only, not on the handler, so both
    synth workloads generate the same suites.  The seed draws the
    constraint values while the shapes stay fixed, which keeps the store
    growth under bdd-and, and so peak memory, steady across seeds.
    """
    synth20 = (ROOT / "models" / "synth20.model").read_text(encoding="utf-8")
    models = [("synth20", synth20)]
    for n, constrained, constraints in ((22, 10, 8), (24, 11, 9)):
        models.append((f"synth{n}-s{seed}", instances.synth_model(
            random.Random(f"synth{n}-shape"), random.Random(f"synth{n}:{seed}"),
            n, constrained, constraints, constrained,
            f"synth-style model, seed {seed}")))
    return [Instance(name, text, 3, kind, partner) for name, text in models]


def _scale_setup(seed: int) -> list[Instance]:
    """A 60-parameter synth-style model at t=2 and a 150-parameter
    implication chain at t=1, each under both quantification orders."""
    # Only the value labels of the 60-parameter model come from the seed;
    # its shape and constraint values are fixed.  Seeded constraint values
    # swing the store under bdd-partial-down from 260k to 570k nodes and
    # peak memory from 110 to 195 MB, and across random shapes the store ranges over
    # more than an order of magnitude and the suite flips between about 50
    # and 75 rows.  This shape was picked among the first few for a set-up
    # of about a second and a suite size that holds steady.
    scale = instances.synth_model(
        random.Random("scale60-shape-1"), random.Random("scale60-values"),
        60, 40, 30, 14, f"scale model, seed {seed}",
        label_rng=random.Random(f"scale60:{seed}"))
    chain = instances.chain_model(150)
    return [Instance(f"scale60-s{seed}", scale, 2, UP, DOWN),
            Instance(f"scale60-s{seed}", scale, 2, DOWN, UP),
            Instance("chain150", chain, 1, UP, DOWN),
            Instance("chain150", chain, 1, DOWN, UP)]


WORKLOADS: dict[str, Callable[[int], list[Instance]]] = {
    "synth-t3-up": lambda seed: _synth_t3(seed, UP, AND),
    "synth-t3-and": lambda seed: _synth_t3(seed, AND, UP),
    "scale-setup": _scale_setup,
}


class GateFailure(Exception):
    """A correctness gate failed."""


@dataclass
class InstanceLog:
    instance: Instance
    rows: Optional[list] = None          # suite of the first round
    plain: list[dict] = field(default_factory=list)   # untraced rounds
    traced: list[dict] = field(default_factory=list)  # traced rounds' layers
    error: Optional[str] = None          # exception type that failed it


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def run_plain(inst: Instance):
    """One instance through the public API, timed per stage.

    Set-up runs repeatedly until it has taken SETUP_MIN_S, and its median
    counts, so that set-ups of a few milliseconds are timed steadily too.
    """
    clock = time.perf_counter
    setups = []
    while True:
        start = clock()
        model = parse_model(inst.text)
        handler = build_handler(model, inst.kind)
        setups.append(clock() - start)
        if sum(setups) >= SETUP_MIN_S:
            break
        del model, handler  # free the store before the next set-up
    built = clock()
    suite = generate(model, inst.t, handler)
    generated = clock()
    report = verify(model, suite.rows, inst.t, handler)
    verified = clock()
    if not report.ok:
        raise GateFailure(f"suite fails verify under {inst.kind}")
    times = {"setup_s": statistics.median(setups),
             "generate_s": generated - built, "verify_s": verified - generated}
    return suite.rows, times


def check_anchor(inst: Instance, rows: int, checks: int, kind: str) -> None:
    anchor = ANCHORS.get((inst.model, inst.t))
    if anchor is not None and (rows, checks) != anchor:
        raise GateFailure(f"expected {anchor[0]} rows from {anchor[1]} checks, "
                          f"got {rows} rows from {checks} checks under {kind}")


def check_gates(inst: Instance, rows: list, suites: dict) -> None:
    """Raise GateFailure unless the suite passes every correctness gate.

    ``suites`` maps (model, t, kind) to the suites the measured rounds
    generated.  When it holds the partner's suite, that suite was already
    verified under the partner kind, so equal rows pass both partner gates.
    """
    model = parse_model(inst.text)
    buf = io.StringIO()
    write_suite_csv(model, rows, buf)
    buf.seek(0)
    if read_suite_csv(model, buf) != list(rows):
        raise GateFailure("suite changed in a CSV round trip")
    partner_rows = suites.get((inst.model, inst.t, inst.partner))
    if partner_rows is None:
        partner = tracing.CountingHandler(build_handler(model, inst.partner))
        partner_rows = generate(model, inst.t, partner).rows
        check_anchor(inst, len(partner_rows), partner.calls, inst.partner)
        if not verify(model, rows, inst.t, partner).ok:
            raise GateFailure(f"suite fails verify under {inst.partner}")
    if partner_rows != rows:
        raise GateFailure(f"suite differs from the one {inst.partner} generates")


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def _probe_orders(insts: list[Instance]) -> dict[str, list[QuantOrder]]:
    """For each instance, the quantification orders to time besides its own,
    so that every model of the workload is timed under both orders once."""
    covered: dict[str, set[QuantOrder]] = {}
    for inst in insts:
        if inst.kind != AND:
            covered.setdefault(inst.model, set()).add(tracing.QUANT_ORDER[inst.kind])
    probes: dict[str, list[QuantOrder]] = {}
    seen: set[str] = set()
    for inst in insts:
        if inst.model not in seen:
            seen.add(inst.model)
            have = covered.get(inst.model, set())
            probes[inst.name] = [q for q in QuantOrder if q not in have]
    return probes


def run_workload(insts: list[Instance], seconds: float, trace: bool,
                 emit: Callable[[dict], None] = _emit,
                 tracer: Optional[tracing.Tracer] = None) -> dict:
    """Measure ``insts`` in rounds for ``seconds``; return the result dict."""
    logs = [InstanceLog(inst) for inst in insts]
    probes = _probe_orders(insts)
    stream: list = []
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 0
        for log in logs:
            if log.error is not None:
                continue
            inst = log.instance
            record = {"instance": inst.name, "round": rnd, "traced": traced}
            try:
                if traced:
                    rows, report, layers = tracing.run_traced(
                        tracer, inst.name, inst.text, inst.t, inst.kind,
                        probes.get(inst.name, []),
                        stream if rnd == 0 and log is logs[0] else None)
                    if not report.ok:
                        raise GateFailure(f"suite fails verify under {inst.kind}")
                    check_anchor(inst, len(rows), layers["validity.checks"], inst.kind)
                    log.traced.append(layers)
                    record["generate_s"] = layers["trace.generate_s"]
                else:
                    rows, times = run_plain(inst)
                    log.plain.append(times)
                    record.update(times)
                if log.rows is None:
                    log.rows = rows
                elif rows != log.rows:
                    raise GateFailure("suite differs between rounds")
                record.update(status="ok", rows=len(rows), digest=_digest(rows))
            except Exception as exc:  # counted per instance; the run goes on
                log.error = type(exc).__name__
                record.update(status="failed", error=log.error, message=str(exc)[:200])
            emit(record)
        rnd += 1
        if time.perf_counter() - start >= seconds and (not trace or rnd >= 2):
            break
        if all(log.error is not None for log in logs):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    suites = {(log.instance.model, log.instance.t, log.instance.kind): log.rows
              for log in logs if log.error is None}
    for log in logs:
        if log.error is not None:
            continue
        try:
            check_gates(log.instance, log.rows, suites)
        except Exception as exc:  # a gate that raises fails the instance
            log.error = type(exc).__name__
            emit({"instance": log.instance.name, "gate": "failed",
                  "error": log.error, "message": str(exc)[:200]})

    split = dict.fromkeys(tracing.REPLAY_METRICS, 0.0)
    if trace and stream and logs[0].error is None:
        sample = stream[::max(1, -(-len(stream) // REPLAY_CHECKS))]
        try:
            split = tracing.replay_checks(logs[0].instance.text, sample)
        except Exception as exc:  # counted against the replayed instance
            logs[0].error = type(exc).__name__
            emit({"instance": logs[0].instance.name, "replay": "failed",
                  "error": logs[0].error, "message": str(exc)[:200]})

    done = [log for log in logs if log.error is None]
    failures: dict[str, int] = {}
    for log in logs:
        if log.error is not None:
            failures[log.error] = failures.get(log.error, 0) + 1
    result = {"attempted": len(logs), "failed": len(logs) - len(done),
              "failures": failures}
    if trace:
        result["metrics"] = _layer_metrics(done, split)
    else:
        result["metrics"] = _end_to_end(done, peak_rss_mb)
    return result


def _median_sum(logs: list[InstanceLog], key: str) -> float:
    return sum(statistics.median(s[key] for s in log.plain) for log in logs)


def _end_to_end(done: list[InstanceLog], peak_rss_mb: float) -> dict:
    return {
        "setup_s": (_median_sum(done, "setup_s"), "s"),
        "generate_s": (_median_sum(done, "generate_s"), "s"),
        "verify_s": (_median_sum(done, "verify_s"), "s"),
        "suite_rows": (sum(len(log.rows) for log in done), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


_LAYER_SUMS = {
    "model.parse_s": "s", "encode.order_s": "s", "encode.compile_s": "s",
    "encode.f_nodes": "count", "validity.build_g_up_s": "s",
    "validity.build_g_down_s": "s", "validity.g_nodes": "count",
    "bdd.nodes_after_setup": "count", "bdd.nodes_after_generate": "count",
    "validity.checks": "count", "validity.check_s": "s", "ipog.self_s": "s",
    "ipog.verify_self_s": "s", "ipog.verify_checks": "count",
    "trace.generate_s": "s",
}


def _layer_metrics(done: list[InstanceLog], split: dict) -> dict:
    # Each instance contributes its traced round with the (low) median
    # generate time, so that ipog.self_s + validity.check_s adds up to
    # trace.generate_s; the overhead compares it with the untraced low
    # median.
    chosen = []
    for log in done:
        ranked = sorted(log.traced, key=lambda layers: layers["trace.generate_s"])
        chosen.append(ranked[(len(ranked) - 1) // 2])
    totals = {key: sum(layers.get(key, 0) for layers in chosen) for key in
              list(_LAYER_SUMS) + ["validity.valid"]}
    metrics = {key: (totals[key], unit) for key, unit in _LAYER_SUMS.items()}
    checks = max(1, totals["validity.checks"])
    metrics["validity.check_us"] = (1e6 * totals["validity.check_s"] / checks, "us")
    metrics["validity.valid_ratio"] = (totals["validity.valid"] / checks, "ratio")
    for key, value in split.items():
        metrics[key] = (value, "us")
    untraced = sum(statistics.median_low(s["generate_s"] for s in log.plain)
                   for log in done)
    metrics["trace.overhead_s"] = (totals["trace.generate_s"] - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    insts = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    result = run_workload(insts, args.seconds, bool(args.trace), tracer=tracer)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")

    frac = result["failed"] / result["attempted"]
    shown = ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in result["metrics"].items())
    print(f"summary {args.workload} seed {args.seed}: {shown}, "
          f"failed_frac={frac:.6g} ratio, failures={result['failures']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
