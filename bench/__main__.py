"""``python -m bench`` entry point."""

from bench.cli import main

raise SystemExit(main())
