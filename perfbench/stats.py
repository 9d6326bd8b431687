"""Latency statistics and the golden-output comparator."""

from __future__ import annotations

import math
import re

TAIL_BEYOND = 10


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    With n sorted samples that is the nearest-rank percentile 100*(n-10)/n,
    whose value is the eleventh largest sample.  Returns the value, the
    percentile and the number of samples beyond it.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail rule needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _split_text(text: str) -> tuple[list[str], list[str]]:
    return _NUMBER.split(text), _NUMBER.findall(text)


def _is_int_token(token: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", token) is not None


def compare(expected, actual, tol: float, path: str = "$") -> list[str]:
    """Differences between a golden output and a fresh one.

    Integers, booleans, strings and lists (the JSON form of sets) must match
    exactly; floats must agree within ``tol``.  Inside strings every number
    token is compared the same way and the text around them exactly.
    """
    if expected is None or actual is None or isinstance(expected, bool) or isinstance(actual, bool):
        same = type(expected) is type(actual) and expected == actual
        return [] if same else [f"{path}: {actual!r} != golden {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != golden {sorted(expected)}"]
        return [d for key in expected for d in compare(expected[key], actual[key], tol, f"{path}.{key}")]
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != golden {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in compare(e, a, tol, f"{path}[{i}]")]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if expected == actual else [f"{path}: {actual} != golden {expected}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) or isinstance(actual, int):
            return [f"{path}: {actual!r} and golden {expected!r} differ in type"]
        ok = math.isfinite(expected) and abs(expected - actual) <= tol or expected == actual
        return [] if ok else [f"{path}: {actual!r} differs from golden {expected!r} by more than {tol:g}"]
    if isinstance(expected, str) and isinstance(actual, str):
        if expected == actual:
            return []
        (e_text, e_nums), (a_text, a_nums) = _split_text(expected), _split_text(actual)
        if e_text != a_text or len(e_nums) != len(a_nums):
            return [f"{path}: text differs from golden"]
        out = []
        for i, (e, a) in enumerate(zip(e_nums, a_nums)):
            if _is_int_token(e) or _is_int_token(a):
                if e != a:
                    out.append(f"{path}: number #{i} {a} != golden {e}")
            elif abs(float(e) - float(a)) > tol:
                out.append(f"{path}: number #{i} {a} differs from golden {e} by more than {tol:g}")
        return out
    return [f"{path}: {type(actual).__name__} != golden {type(expected).__name__}"]
