"""Time the set-up a user pays before the first trace, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py FEEDER.json SCENARIO.json

Prints one JSON object: the import of ``adcap.cli`` and ``adcap.report``,
then ``load_feeder``, ``NetworkCase`` and ``build_registry`` on the given
inputs, each in seconds, and their sum as ``total_s``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv):
    feeder_text = Path(argv[0]).read_text()
    scenario_text = Path(argv[1]).read_text()
    t0 = perf_counter()
    import adcap.cli  # noqa: F401
    import adcap.report  # noqa: F401
    from adcap import feeder, powerflow, stochastic

    t1 = perf_counter()
    model = feeder.load_feeder(feeder_text)
    t2 = perf_counter()
    powerflow.NetworkCase(model)
    t3 = perf_counter()
    stochastic.build_registry(model, json.loads(scenario_text))
    t4 = perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "load_feeder_s": t2 - t1,
        "network_case_s": t3 - t2,
        "build_registry_s": t4 - t3,
        "total_s": t4 - t0,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
