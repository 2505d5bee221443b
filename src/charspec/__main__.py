"""``python -m charspec``: the command-line scanner of ``charspec.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
