"""``python -m gsfv``: the same command line as the ``gsfv`` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
