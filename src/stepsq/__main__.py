"""``python -m stepsq``: the same command line as the ``stepsq`` script."""

from .cli import main

if __name__ == "__main__":
    main()
