"""``python -m sdexit``: the ``sdexit`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
