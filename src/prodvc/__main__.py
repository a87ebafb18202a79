"""`python -m prodvc`: the same command line as the `prodvc` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
