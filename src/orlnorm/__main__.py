"""python -m orlnorm: the orlnorm command line."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
