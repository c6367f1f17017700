"""``python -m qrot``: the ``qrot`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
