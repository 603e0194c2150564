"""``python -m rislink``: the same command-line front end as ``rislink``."""

from .cli import main

if __name__ == "__main__":
    main()
