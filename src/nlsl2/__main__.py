"""`python -m nlsl2 ...`: the `nlsl2` CLI without an installed entry point."""

from .cli import main

if __name__ == "__main__":
    main()
