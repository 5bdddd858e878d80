"""``python -m tools.lint`` entry point."""

import sys

from tools.lint.cli import main

if __name__ == "__main__":
    sys.exit(main())
