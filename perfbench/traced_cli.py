"""Run the adcap command line with the span tracer installed in this process.

    PYTHONPATH=src python3 perfbench/traced_cli.py SUMMARY.json run [adc run options]

Pool workers forked by the run drop the wrappers, so the spans cover the
parent process only.  The per-layer metrics of the run are written to
SUMMARY.json; the exit code is the command line's own.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv):
    from adcap import cli

    tracer = tracing.Tracer()
    tracer.install()
    os.register_at_fork(after_in_child=tracer.uninstall)
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.uninstall()
    Path(argv[0]).write_text(json.dumps(tracing.layer_metrics(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
