"""Run ``prone`` CLI arguments with library spans installed.

Usage: python3 perfbench/cli_child.py TRACE_JSON ARG...

Behaves like ``python -m prone.cli ARG...`` and, when the command returns,
writes the span summary of the whole command to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402  (the script's own directory is on sys.path)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import prone.cli  # before the wrappers, so that its own names hold the originals

    rec = tracer.Tracer()
    rec.install(tracer.LIBRARY_TARGETS + tracer.CLI_TARGETS)
    code = prone.cli.main(argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(rec.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
