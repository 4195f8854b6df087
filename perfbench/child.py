"""Child interpreter entry points of the benchmark.

    child.py setup <workload>           import the package, run the workload's
                                        warm-up job (timed by the parent)
    child.py cli <span-file> <args...>  one CLI command through mathieu_geom.cli.main,
                                        traced into <span-file> unless it is "-"
    child.py readme <README.md>         run every documented CLI example in this
                                        interpreter; print their exit codes

The package is found through PYTHONPATH, which the parent sets.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys


def call_cli(argv: list[str]) -> int:
    """mathieu_geom.cli.main; argparse usage errors (SystemExit) are
    returned as their exit code."""
    from mathieu_geom import cli

    try:
        return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def run_cli(argv: list[str]) -> int:
    """call_cli with the command's output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return call_cli(argv)


def readme_commands(text: str) -> list[list[str]]:
    """The `mathieu-geom ...` lines of the README's shell blocks, as argv
    lists without the program name."""
    cmds, in_sh = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        if in_sh and line.startswith("mathieu-geom "):
            cmds.append(shlex.split(line, comments=True)[1:])
    return cmds


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import mathieu_geom  # noqa: F401  (the import is what is timed)

        if argv[1] != "cli-cold":
            import workloads

            workloads.make(argv[1], None).warmup()
        return 0
    if mode == "cli":
        if argv[1] == "-":
            return call_cli(argv[2:])
        from tracing import Tracer

        tracer = Tracer().install()
        code = call_cli(argv[2:])
        with open(argv[1], "w") as fh:
            json.dump([s.as_list() for s in tracer.spans], fh)
        return code
    if mode == "readme":
        with open(argv[1]) as fh:
            cmds = readme_commands(fh.read())
        print(json.dumps([{"argv": cmd, "code": run_cli(cmd)} for cmd in cmds]))
        return 0
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
