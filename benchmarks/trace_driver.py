"""Run one demkit CLI command with the benchmark's span tracing installed.

Usage: python3 benchmarks/trace_driver.py OUT.json <demkit arguments>

The report goes to stdout exactly as ``python3 -m demkit.cli`` would print
it, and the process exits with the CLI's status. OUT.json receives the
per-layer figures, the count ledger and whether every wrapped attribute was
restored; the spans themselves go next to it in OUT.spans.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing
import workloads


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    workloads.import_demkit()
    import demkit.cli

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with tracer.span(tracing.CLI_SPAN):
            status = demkit.cli.main(argv[1:])
    finally:
        tracing.uninstall(patches)
    sys.stdout.flush()
    doc = {
        "status": status,
        "restored": tracing.restored(patches),
        "layers": tracer.metrics(),
        "ledger": tracer.ledger(),
    }
    out.write_text(json.dumps(doc) + "\n")
    tracer.write(out.with_suffix(".spans.json"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
