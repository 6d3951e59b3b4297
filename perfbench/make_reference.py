"""Regenerate ``reference.json``, the stored sweep figures the checks compare to.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Run it only in a change that means to alter the library's output (and say
so): the references pin today's results at the stored master seeds.
"""
from __future__ import annotations

import json

import run

REFERENCE_SEEDS = tuple(range(1001, 1009))


def main() -> None:
    run.import_library()
    import workloads

    data = {}
    for name in ("sweep_ecsi", "sweep_robust"):
        workload = workloads.WORKLOADS[name]()
        seeds = {}
        for master in REFERENCE_SEEDS:
            cfg = workloads.wt.preset_config(workload.preset, trials=workload.trials,
                                             master_seed=master)
            seeds[str(master)] = workload.summary(workload.run(cfg))
        data[name] = {"preset": workload.preset, "trials": workload.trials, "seeds": seeds}
    workloads.REFERENCE_FILE.write_text(json.dumps(data) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
