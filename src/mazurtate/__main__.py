"""``python -m mazurtate``: the command line of ``mazurtate.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
