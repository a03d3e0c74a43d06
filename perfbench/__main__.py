"""``python3 -m perfbench``: see :mod:`perfbench.cli`."""

import sys

from perfbench.hygiene import prepare_environment

if __name__ == "__main__":
    # Before anything imports ``repro``: see perfbench.hygiene.
    prepare_environment()
    from perfbench.cli import main

    sys.exit(main())
