"""Parsing of group / subgroup / generating-set descriptors.

Groups are described either as JSON ``{"kind": ..., "params": [...]}`` or as
the shorthand ``kind:param[,param]`` (e.g. ``cyclic:12``, ``gl2:5``,
``field_additive:7,2``).  Subgroups are element lists, builtin names, or
generator lists; the builtins cover the stock pairings used throughout.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterable, Union

import numpy as np

from .errors import ValidationError
from .groups import (
    FiniteGroup,
    Subgroup,
    _even_rows,
    closed_subgroup,
    field_norm_preimage,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
)

GROUP_KINDS = {
    "cyclic": (make_cyclic, 1),
    "symmetric": (make_symmetric, 1),
    "alternating": (make_alternating, 1),
    "dihedral": (make_dihedral, 1),
    "gl2": (make_gl2, 1),
    "sl2": (make_sl2, 1),
    "field_additive": (make_field_additive, 2),
}

SUBGROUP_BUILTINS = ("sl2_in_gl2", "alternating_in_symmetric", "evens", "klein_in_a4")


def group_from_descriptor(descriptor: Union[str, dict]) -> FiniteGroup:
    if isinstance(descriptor, str):
        text = descriptor.strip()
        if text.startswith("{"):
            descriptor = _json(text, "group descriptor")
        else:
            kind, _, rest = text.partition(":")
            descriptor = {"kind": kind, "params": _integers(rest.split(","), "group parameter")}
    if not isinstance(descriptor, dict):
        raise ValidationError(f"group descriptor must be a JSON object, got {descriptor!r}")
    if set(descriptor) - {"kind", "params"}:
        raise ValidationError(f"group descriptor takes 'kind' and 'params' and no other key, got {list(descriptor)}")
    kind, params = descriptor.get("kind"), descriptor.get("params", [])
    if kind == "product":
        if not isinstance(params, (list, tuple)) or len(params) != 2:
            raise ValidationError("product descriptor needs exactly two factor descriptors")
        try:  # json.loads refuses deep text on Python < 3.12; a library dict, or text on 3.12, ends here
            return make_direct_product(group_from_descriptor(params[0]), group_from_descriptor(params[1]))
        except RecursionError:
            raise ValidationError("group descriptor nests too deeply") from None
    if not isinstance(kind, str) or kind not in GROUP_KINDS:
        raise ValidationError(f"unknown group kind {kind!r}")
    maker, arity = GROUP_KINDS[kind]
    values = _integers(params, "group parameter")
    if len(params) != arity:
        raise ValidationError(f"group kind {kind!r} takes {arity} parameter(s), got {params}")
    return maker(*values)


def _integers(tokens: Iterable, what: str) -> list[int]:
    """Each int or integer string as an int, empty strings skipped; a non-list, float or bool raises, named."""
    if isinstance(tokens, (str, dict)) or not isinstance(tokens, Iterable):
        raise ValidationError(f"{what}s must be a list, got {tokens!r}")
    values = []
    for token in (t for t in tokens if t != ""):
        try:  # any other type, a float or a bool included, goes to int(None), which raises
            values.append(int(token if type(token) is int or isinstance(token, (np.integer, str)) else None))
        except (TypeError, ValueError):
            raise ValidationError(f"{what} {token!r} is not an integer") from None
    return values


def _keyed(descriptor, what: str, choices: tuple[str, ...], shorthand: Callable[[str], dict]) -> tuple[str, object]:
    """The one key of ``choices`` a descriptor holds, and its value; none, two, or a key it does not read raises.

    Text is JSON when it starts with '{' and ``shorthand(text)`` otherwise; any other non-dict is the 'elements'.
    """
    if isinstance(descriptor, str):
        text = descriptor.strip()
        descriptor = _json(text, f"{what} descriptor") if text.startswith("{") else shorthand(text)
    elif not isinstance(descriptor, dict):
        descriptor = {"elements": descriptor}
    found = [key for key in choices if key in descriptor]
    if not found:
        raise ValidationError(f"{what} descriptor needs {', '.join(map(repr, choices[:-1]))} or {choices[-1]!r}")
    if len(found) > 1 or len(descriptor) > 1:
        raise ValidationError(f"{what} descriptor takes one of {choices} and no other key, got {list(descriptor)}")
    return found[0], descriptor[found[0]]


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {text!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{what} nests too deeply") from None


def builtin_subgroup(group: FiniteGroup, name: str) -> Subgroup:
    """A stock subgroup by name; the three kernels (of det, sign and mod 2) skip the closure check."""
    kind = group.descriptor.get("kind")
    if name == "sl2_in_gl2":
        if kind != "gl2" or group.matrices is None:
            raise ValidationError("sl2_in_gl2 needs a gl2 group")
        a, b, c, d = group.matrices.T
        return closed_subgroup(group, np.flatnonzero((a * d - b * c) % group.descriptor["params"][0] == 1))
    if name == "alternating_in_symmetric":
        if kind != "symmetric" or group.images is None:
            raise ValidationError("alternating_in_symmetric needs a symmetric group")
        return closed_subgroup(group, np.flatnonzero(_even_rows(group.images.shape[1])))
    if name == "evens":
        if kind != "cyclic" or group.order % 2 != 0:
            raise ValidationError("evens needs a cyclic group of even order")
        return closed_subgroup(group, np.arange(0, group.order, 2))
    if name == "klein_in_a4":
        if kind != "alternating" or group.descriptor.get("params") != [4]:
            raise ValidationError("klein_in_a4 needs the alternating group on 4 letters")
        wanted = ["e", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]
        elems = [perm_index(group, w) for w in wanted]
        return subgroup_from_elements(group, elems)
    raise ValidationError(f"unknown builtin subgroup {name!r}; known: {SUBGROUP_BUILTINS}")


def subgroup_from_descriptor(group: FiniteGroup, descriptor: Union[str, dict, Iterable[int]]) -> Subgroup:
    def shorthand(text: str) -> dict:  # integer literals, signed ones too, or a builtin's name
        return {"elements": text.split(",")} if re.fullmatch(r"[\d ,+-]*\d[\d ,+-]*", text) else {"builtin": text}

    key, value = _keyed(descriptor, "subgroup", ("elements", "generators", "builtin"), shorthand)
    if key == "builtin":
        return builtin_subgroup(group, value)
    if key == "elements":
        return subgroup_from_elements(group, _integers(value, "subgroup element"))
    return subgroup_generated(group, _integers(value, "subgroup generator"))


def set_from_descriptor(group: FiniteGroup, descriptor: Union[str, dict, Iterable[int]]) -> tuple[int, ...]:
    """Generating-set elements from an explicit list or a norm-preimage rule."""
    key, value = _keyed(descriptor, "set", ("elements", "norm_preimage"), lambda text: {"elements": text.split(",")})
    if key == "norm_preimage":
        return field_norm_preimage(group, _integers(value, "norm value"))
    return tuple(_integers(value, "set element"))
