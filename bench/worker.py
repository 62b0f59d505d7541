"""One pass of an in-process workload, in a fresh interpreter.

Every pass gets its own interpreter because fuzzaut keeps process-lifetime
``lru_cache``s (``build_inn_group``, the mu strategies, subgroup
enumeration, ...) that a CLI user never finds warm.

    python3 bench/worker.py --workload default-matrix --mode run --out pass.json --report report.json

``--mode setup`` stops after set-up: ``import fuzzaut`` plus resolving and
validating every group and mu token of the campaign.  ``--mode run`` then
runs ``harness.run_campaign`` and writes its report, with stable timings, to
``--report``.  The caller checks that report; nothing else runs in this
process after the campaign, so its peak memory is fuzzaut's own.  The pass
reports the start and end of its set-up and run as absolute
``time.perf_counter()`` readings, which the caller shares, so that it can
take its CPU probes out of them (``pace.py``).  ``--trace`` installs the
span tracer before set-up.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

S4_STATEMENTS = (
    "Theorem 2.1",
    "Theorem 2.2",
    "Lemma 3.5",
    "Lemma 3.6",
    "Lemma 4.1",
    "Theorem 4.3",
)


def campaign_for(workload: str, harness):
    if workload == "default-matrix":
        return harness.default_campaign()
    if workload == "s4-hom":
        return harness.Campaign(groups=("S4",), mu_sources=("chain", "class"), suites=S4_STATEMENTS)
    raise SystemExit(f"unknown in-process workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    parser.add_argument("--report", default=None, help="where a run pass writes its report")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import fuzzaut
    from fuzzaut import harness
    from fuzzaut.subsets import require_valid_mu

    if Path(fuzzaut.__file__).resolve().parent != SRC / "fuzzaut":
        raise SystemExit(f"imported fuzzaut from {fuzzaut.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import fuzzaut.cli  # noqa: F401  (binds io and cli so every span target is wrapped)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    campaign = campaign_for(args.workload, harness)
    for token in campaign.groups:
        group = harness.resolve_group(token)
        for mu_token in campaign.mu_sources:
            require_valid_mu(harness.resolve_mu(mu_token, group))
    # windows as absolute perf_counter readings, which the calling process shares
    out: dict = {"setup": (t0, time.perf_counter())}

    if args.mode == "run":
        from fuzzaut import io as fio

        t1 = time.perf_counter()
        results = harness.run_campaign(campaign)
        out["run"] = (t1, time.perf_counter())
        Path(args.report).write_bytes(fio.dumps(harness.campaign_report(campaign, results)).encode())
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
