"""Run the spheremarket CLI with every public function traced.

Usage: python perfbench/cli_child.py <spans.json> <cli arguments...>

Behaves like ``python -m spheremarket.cli_runner <cli arguments...>`` and
writes the recorded spans to <spans.json> when the CLI returns.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    with rec.installed():
        from spheremarket import cli_runner

        code = cli_runner.main(argv)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
