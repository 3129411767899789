"""``python -m mvfuse``: the ``mvfuse`` command line."""

import sys

from .cli import main

sys.exit(main())
