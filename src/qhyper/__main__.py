"""`python -m qhyper`: the command line of `qhyper.cli`."""
import sys

from .cli import main

sys.exit(main())
