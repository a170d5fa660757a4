"""The repo's canonical benchmark (see bench/README.md); run it with
``python3 bench/run.py``."""
