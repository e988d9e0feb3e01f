"""`python -m lojex ...`: the lojex command line."""

import sys

from .cli import main

sys.exit(main())
