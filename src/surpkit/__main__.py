"""``python -m surpkit``: the same command line as the ``surpkit`` script."""

import sys

from surpkit.cli import main

if __name__ == "__main__":
    sys.exit(main())
