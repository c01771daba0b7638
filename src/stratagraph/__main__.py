"""`python -m stratagraph` runs the command-line front end.

Like `python -m stratagraph.cli` and the installed `stratagraph` script, it
ends the process through `cli.run()`, which freezes the heap after the
command so the interpreter's exit-time collection skips it. `cli.main()`
never touches the collector.
"""
from .cli import run

if __name__ == "__main__":
    raise SystemExit(run())
