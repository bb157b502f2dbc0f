"""`python -m rmcover`: the `rmcover` command line."""

import sys

from .cli import main

sys.exit(main())
