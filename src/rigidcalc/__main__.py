"""``python -m rigidcalc``: the command line front end, as ``rigidcalc``."""
import sys

from .cli import main

sys.exit(main())
