"""``python -m cogforge``: the same CLI as the ``cogforge`` console script."""

from .cli import entrypoint

if __name__ == "__main__":
    raise SystemExit(entrypoint())
