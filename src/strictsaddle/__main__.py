"""``python -m strictsaddle ...`` runs the command line harness."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
