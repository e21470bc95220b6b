"""``python3 -m gzlss``, and the ``gzlss`` script: the command line.

Pool workers start by spawn, which re-imports the parent's main module in
each worker.  It skips a module named ``__main__``, and the script's main
module imports only this one, so the CLI is imported here inside ``main``:
workers load only the modules their tasks need.
"""

import sys


def main(argv=None) -> int:
    from gzlss.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
