"""``python -m talgate``: the ``talgate`` command line."""

from .cli import main

raise SystemExit(main())
