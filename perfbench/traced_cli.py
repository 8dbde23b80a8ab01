"""Run one CLI invocation or experiment script with span tracing installed.

    python3 perfbench/traced_cli.py SPANS_FILE -m cavitymagnons --config run.cfg
    python3 perfbench/traced_cli.py SPANS_FILE scripts/level_diagrams.py --outdir out

The wrappers go onto the package's module attributes before the CLI or script
runs, so the script's ``from cavitymagnons.cli import parse_config, run`` and
the CLI's own calls both pick them up.  The spans of the whole process are
written to SPANS_FILE (``.npz``) when it ends, and the exit code is passed on.
"""

import runpy
import sys

import tracer


def main() -> int:
    spans_file, target, *rest = sys.argv[1:]
    import cavitymagnons.cli

    spans = tracer.Tracer()
    spans.install()
    spans.active = True
    code = 0
    try:
        if target == "-m":
            module, *args = rest
            if module != "cavitymagnons":
                raise SystemExit(f"traced_cli: only '-m cavitymagnons' is supported, got {module!r}")
            code = cavitymagnons.cli.main(args)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    finally:
        spans.active = False
        spans.save(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
