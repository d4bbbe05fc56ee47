"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/golden.py

Runs every input of every workload once at seed 0 (registry values, no
perturbation) and writes golden.json next to this file.  The committed
golden.json was written from the unmodified degenlog 0.1.0 sources; rerun
this only to pin a deliberate change of results, and say so.
"""

import json

import run

run.import_package()

import workloads as wl  # noqa: E402
from degenlog import scenarios  # noqa: E402


def main() -> None:
    golden = {"predict": {}, "simulate": {}, "crosscheck": {}, "spectral": {}}
    for workload in run.WORKLOADS:
        for inp in wl.make_inputs(workload, 0):
            if isinstance(inp, wl.SpectralInput):
                golden["spectral"][inp.key] = wl.spectral_value(inp)
                continue
            s, g = inp.scenario, inp.grid
            checks = scenarios.predict(s, g)
            golden["predict"][inp.key] = wl.predict_summary(checks)
            if workload == "predict-registry":
                continue
            tr = scenarios.run_scenario(s, g)
            golden["simulate"][inp.key] = wl.simulate_summary(tr, s.scheme.dt)
            rep = scenarios.cross_check(s, trajectory=tr, grid=g,
                                        checks=checks)
            golden["crosscheck"][inp.key] = wl.crosscheck_summary(rep)
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
