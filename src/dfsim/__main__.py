"""`python -m dfsim`: the command-line interface of `dfsim.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
