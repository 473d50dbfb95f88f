"""`python -m cdrecho`: the same command line as the `cdrecho` script."""

from .cli import main

if __name__ == "__main__":
    main()
