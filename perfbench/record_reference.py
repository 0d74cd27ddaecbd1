"""Record ``reference.json``: the outputs the benchmark's correctness gate expects.

For every workload it stores the digest of the ``(check, t, k, verdict)``
list, which depends only on the workload's sizes, and the ``beta``,
``p_star``, ``delta`` and ``q_step`` of each scenario.  Those four are the
same for every seed on ``cubic-tree`` and ``constrained-mix`` (fixed graphs)
and are stored once; on ``rooted-churn`` they depend on the drawn graphs and
are stored for every run seed in ``range(scenarios.RUN_SEEDS)``, the only run
seeds the generator draws.  Record once, at a commit whose outputs are
trusted::

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import json
import sys

import run
import scenarios

# Workload seeds used to confirm that the fixed-graph workloads really give
# one set of scalars.
INVARIANCE_SEEDS = range(4)


def outcome(engine, scenario: dict) -> tuple[str, list]:
    result = engine.run(engine.RunConfig.from_json_dict(scenario))
    verdicts = [[r.check, r.t, r.k, r.verdict] for r in result.records]
    return run.verdict_digest(verdicts), run.report_scalars(result.report)


def record(engine, workload: str, cases: list[dict]) -> dict:
    digests = set()
    table = {}
    for done, scenario in enumerate(cases, 1):
        digest, scalars = outcome(engine, scenario)
        digests.add(digest)
        table[str(scenario["seed"])] = scalars
        if done % 16 == 0 or done == len(cases):
            print(f"{workload}: {done}/{len(cases)} scenarios", file=sys.stderr, flush=True)
    if len(digests) != 1:
        raise SystemExit(f"{workload}: verdict lists differ between seeds")
    entry = {"verdicts_sha256": digests.pop(), "scalars": table}
    if workload != "rooted-churn":
        if len({json.dumps(v) for v in table.values()}) != 1:
            raise SystemExit(f"{workload}: scalars differ between seeds")
        entry = {"verdicts_sha256": entry["verdicts_sha256"], "scalars": {},
                 "all_seeds": next(iter(table.values()))}
    return entry


def cases(workload: str) -> list[dict]:
    if workload == "rooted-churn":
        # The rooted-churn scenario depends on its run seed alone.
        return [scenarios.WORKLOADS[workload](None, s) for s in range(scenarios.RUN_SEEDS)]
    return [sc for seed in INVARIANCE_SEEDS for sc in scenarios.scenarios(workload, seed)]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from consensus_lab import engine
    reference = {wl: record(engine, wl, cases(wl)) for wl in scenarios.WORKLOADS}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
