"""Run the bitesim CLI with the span tracer installed (traced cli_trial).

Usage: traced_cli.py SPANS.npz <bitesim arguments...>

Exits with the CLI's own exit code after writing the spans.
"""

import sys
from pathlib import Path

import spans
from bitesim import cli


def main() -> int:
    out = Path(sys.argv[1])
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(sys.argv[2:])
    finally:
        tracer.remove()
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
