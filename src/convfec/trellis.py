"""Code definition and trellis precomputation for rate-1/2 convolutional codes.

Conventions shared by every module in this package:

* A generator is a tap vector ``g[0..K-1]`` where ``g[0]`` applies to the
  newest input bit.  The octal form reads taps MSB-first, so octal 171 at
  K=7 is binary ``1111001`` and means taps ``(1,1,1,1,0,0,1)``.
* The encoder state holds the last K-1 input bits with the newest bit in
  the LSB.  Stepping with input ``b`` maps state ``p`` to
  ``(2*p + b) mod 2^(K-1)``, so the LSB of a state is the input bit that
  produced it.
* A branch emits the 2-bit symbol ``(first generator bit, second generator
  bit)``, packed internally as ``first << 1 | second``.
* Each state ``s`` has exactly two predecessors: ``s >> 1`` (lower branch)
  and ``(s >> 1) + 2^(K-2)`` (upper branch).
* Frames travel as rows of 0/1 bits, one frame per row; :func:`bit_rows`
  checks the frame arrays that the encoder, decoder and oracle take.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np


class _Value:
    """Base of the immutable value classes: ``_set`` fills the fields once, in
    order; assignment and deletion raise, and ``==``, ``hash`` and ``repr`` go by
    the fields, as a frozen dataclass's do."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class CodeSpec(_Value):
    """A rate-1/2 feedforward convolutional code plus frame geometry.

    ``frame_stages`` is the total number of encoder input bits per frame,
    tail included; the tail is always K-1 zero bits, so the payload carries
    ``frame_stages - (K-1)`` bits.
    """

    def __init__(self, constraint_length: int,
                 generators: tuple[tuple[int, ...], tuple[int, ...]], frame_stages: int) -> None:
        k = _index(constraint_length, "constraint_length")
        stages = _index(frame_stages, "frame_stages")
        if k < 2:
            raise ValueError(f"constraint length must be an integer >= 2, got {k!r}")
        if k > 16:  # the trellis tables hold 2^K entries
            raise ValueError(f"constraint length must be at most 16, got {k}")
        if len(generators) != 2:
            raise ValueError("rate-1/2 code needs exactly two generators")
        for i, taps in enumerate(generators):
            if len(taps) != k:
                raise ValueError(
                    f"generator {i} has {len(taps)} taps, constraint length {k} requires {k}"
                )
            if any(t not in (0, 1) for t in taps):
                raise ValueError(f"generator {i} taps must be 0/1, got {taps!r}")
            if not any(taps):  # from_octal refuses octal 0 by its own text
                raise ValueError(f"generator {i} is all zero")
        generators = tuple(tuple(int(t) for t in taps) for taps in generators)  # hashable, fixed
        self._set(constraint_length=k, generators=generators, frame_stages=stages)
        # g(D) = sum taps[j] D^j; a common factor other than D^m makes the
        # code catastrophic (Massey and Sain, 1968)
        a, b = (sum(t << j for j, t in enumerate(taps)) for taps in generators)
        while b:  # Euclid over GF(2): reduce a modulo b, then swap
            while a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        if a & (a - 1):
            raise ValueError(f"catastrophic generator pair {self.generators_octal}: "
                             "g1(D) and g2(D) share a factor other than a power of D")
        if stages < k:
            raise ValueError(f"frame_stages must be >= constraint length ({k}), got {stages}")

    @property
    def tail_length(self) -> int:
        return self.constraint_length - 1

    @property
    def payload_length(self) -> int:
        return self.frame_stages - self.tail_length

    @property
    def num_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    @classmethod
    def from_octal(
        cls,
        generators: str = "171,133",
        constraint_length: int = 7,
        frame_stages: int = 40,
    ) -> "CodeSpec":
        """Build a spec from comma-separated octal generators, e.g. ``"171,133"``."""
        if not isinstance(generators, str):
            raise TypeError(f"generators must be a string, got {generators!r}")
        constraint_length = _index(constraint_length, "constraint_length")
        parts = [p.strip() for p in generators.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated octal generators, got {generators!r}")
        taps = []
        for part in parts:
            try:
                value = int(part, 8)
            except ValueError:
                raise ValueError(f"invalid octal generator {part!r}") from None
            if value <= 0 or value.bit_length() > constraint_length:
                raise ValueError(
                    f"generator {part!r} does not fit constraint length {constraint_length}"
                )
            taps.append(
                tuple((value >> i) & 1 for i in range(constraint_length - 1, -1, -1))
            )
        return cls(constraint_length, (taps[0], taps[1]), frame_stages)

    @property
    def generators_octal(self) -> str:
        """The generators rendered back as comma-separated octal strings."""
        values = []
        for taps in self.generators:
            v = 0
            for t in taps:
                v = (v << 1) | t
            values.append(format(v, "o"))
        return ",".join(values)


def _index(value, name: str) -> int:
    """``value`` by ``operator.index``; a ``TypeError`` names ``name`` for a bool or non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _real(value, name: str):
    """``value`` itself, unconverted, when it is a real number other than a bool; else a
    ``TypeError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return value


def _count(value, name: str) -> int:
    """``_index(value, name)``, and a ``ValueError`` naming ``name`` when it is negative."""
    if (n := _index(value, name)) < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    return n


def _typed(value, cls: type, name: str):
    """``value`` itself when it is a ``cls``; else a ``TypeError`` naming ``name``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


#: The shipped default: the 802.16 standard K=7 pair (octal 171/133), 40-stage
#: frames of 34 payload bits plus a 6-bit zero tail.
DEFAULT_SPEC = CodeSpec.from_octal("171,133", constraint_length=7, frame_stages=40)


class Trellis:
    """The trellis of ``spec`` as one table plus index arithmetic.

    ``symbol_table[r]`` is the packed branch symbol (uint8) for the K-bit
    register value ``r = 2*p + b``: state ``p`` with input ``b``, so bit ``j``
    of ``r`` is the input ``j`` steps ago.  Every other fact follows from the
    conventions above: branch ``r`` enters state ``r mod S``, and state ``s``
    is entered by branches ``s`` (from ``s >> 1``) and ``s + S`` (from
    ``(s + S) >> 1``), so ``symbol_table[:S]`` and ``symbol_table[S:]`` are
    the lower and upper incoming symbols.  Immutable and safe to share: its
    fields refuse assignment as a value class's do, and a copy is rebuilt from
    ``spec``, so the copy's table is read-only too.
    """

    __slots__ = ("spec", "num_states", "symbol_table")
    __setattr__, __delattr__ = _Value.__setattr__, _Value.__delattr__

    def __init__(self, spec: CodeSpec):
        reg = np.arange(2 * _typed(spec, CodeSpec, "spec").num_states)
        table = np.zeros_like(reg)
        for j, (tap1, tap2) in enumerate(zip(*spec.generators)):
            table ^= ((reg >> j) & 1) * (tap1 << 1 | tap2)
        table = table.astype(np.uint8)
        table.setflags(write=False)
        for name, value in zip(self.__slots__, (spec, spec.num_states, table)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.spec,)


def bit_rows(rows, width: int, noun: str) -> np.ndarray:
    """``rows`` as an ``(n, width)`` uint8 array of 0/1 bits, one frame per row; a ``ValueError``
    names ``noun`` when the shape or a bit is wrong."""
    raw = np.asarray(rows)
    if raw.ndim != 2 or raw.shape[1] != width:
        raise ValueError(f"{noun} must have shape (n, {width}), got {raw.shape}")
    return _bits(raw, noun)


def _bits(raw: np.ndarray, noun: str) -> np.ndarray:
    """``raw`` as uint8 if it holds only 0/1 bits (one ``max`` for unsigned and bool), else a
    ``ValueError`` naming ``noun``; a complex or void array is refused whatever its values."""
    if (raw.max(initial=0) > 1 if raw.dtype.kind in "bu"
            else raw.dtype.kind in "cV" or np.any((raw != 0) & (raw != 1))):
        raise ValueError(f"{noun} must contain only 0/1 bits")
    return raw.astype(np.uint8, copy=False)


def build_trellis(spec: CodeSpec) -> Trellis:
    """Precompute the full trellis for ``spec``.

    The structure is one butterfly pattern tiled over all states: states
    ``j`` and ``j + 2^(K-2)`` feed the successor pair ``{2j, 2j+1}``.
    """
    return Trellis(spec)


def free_distance(spec: CodeSpec, weight_cap: int) -> int | None:
    """Minimum Hamming weight over nonzero paths that leave and re-merge with
    state 0, by a min-plus recursion from the diverging branch (register 1) that
    ends once no unmerged path is lighter than the best re-merge, as it must:
    ``CodeSpec`` refuses catastrophic pairs.  ``None`` when every such path weighs
    more than ``weight_cap`` (a value, not an error: the cap bounds the search)."""
    weight_cap = _index(weight_cap, "weight_cap")
    if weight_cap < 1:
        raise ValueError(f"weight_cap must be >= 1, got {weight_cap}")
    weight = np.array([0, 1, 1, 2])[build_trellis(spec).symbol_table]  # of each 2-bit symbol
    live = np.full(spec.num_states, np.inf)  # the lightest unmerged path into each state
    live[1] = weight[1]
    best = weight_cap + 1
    while live.min() < best:
        step = np.repeat(live, 2) + weight  # branch r runs from state r >> 1 into r mod S
        live = np.minimum(step[:spec.num_states], step[spec.num_states:])
        best = min(best, live[0])
        live[0] = np.inf
    return int(best) if best <= weight_cap else None
