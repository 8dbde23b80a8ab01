"""Allow `python -m cavitymagnons` to invoke the CLI."""

import sys

from .entry import main

sys.exit(main())
