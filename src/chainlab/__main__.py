"""`python -m chainlab`: the same entry point as the `chainlab` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
