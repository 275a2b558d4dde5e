"""Run one ``wolct`` CLI command in-process under the span recorder.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

The traced ``cli`` workload runs this in place of ``python -m wolct.cli``:
it wraps the library's layers, times ``wolct.cli.main(argv)`` as the span
``cli.main.<command>``, writes the spans to SPANS_JSON and exits with
main's exit code.
"""

import sys

import wolct.cli

import spans

if __name__ == "__main__":
    span_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer:
        rc = tracer.wrap(f"cli.main.{argv[0]}", wolct.cli.main)(argv)
    tracer.dump(span_path)
    sys.exit(rc)
