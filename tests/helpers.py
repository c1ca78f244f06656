"""Shared test helpers."""


def read_csv_body(path) -> str:
    """File contents minus '#' comment lines (the byte-comparable body)."""
    with open(path, "r", encoding="utf-8") as f:
        return "".join(line for line in f if not line.startswith("#"))
