"""Trotter planning: turn embedded 2-mode sections into physical cascades.

Every section, from synthesis to plan, is a ``TridiagonalHamiltonian``.
Each synthesized 2-mode section, embedded at modes (m, m+1) of a d-mode
array, becomes N alternating pairs: a drive section A carrying the 2x2
block on top of a uniform positive background, and a recurrence section B
equal to the bare background. The pair implements e^{-i(A-B)L} in the
large-N limit; the backward evolution e^{+iB L/N} is realized as forward
propagation over the recurrence length q - L/N, with q certified by
simultaneous Diophantine approximation of the exact background eigenvalues
(``exact.toeplitz_spectrum``, not their float64 roundings); a q
no longer than L/N is a PlanError. Electrode gaps around B sections are the
caller's zero-voltage section and are compensated exactly because everything
uniform commutes. At d = 2 the synthesized sections are the plan.

A plan is held in memory as run-length blocks: each block stores the bodies
of one Trotter step once, with the provenance they share and the step values
they repeat over. ``ChipPlan.sections`` expands the blocks into the flat
section list, and the plan file (schema v1) stays that flat list.

A section body (a section without its provenance) is identified by its text
in the plan file, ``PlanSection._text``, which is formed once per body.
Only the writer and the readers use it; the readers give bodies of equal
text one object. Compiling forms no text: it interns drives by value,
synthesizing each distinct 2x2 factor and building each distinct drive once
per call, and the recurrence bodies of all blocks are one set of objects.
``_block_pieces`` lays out a block's text for ``to_json`` and for
``ChipPlan.from_json`` from one template, the text of one step split at its
``trotter_step`` value, so the Python work per block does not grow with its
step count; ``realize`` forms the unitaries of all distinct bodies in one
``section_unitaries`` call and the powers of all blocks of one shape in
stacked products. Text that is exactly what ``to_json`` writes for a
compiled plan (or for a compiled plan written back after loading) takes the
layout reader, which parses each block's first Trotter step, each distinct
body once, and compares the block's text with the file. Every other text,
hand edits in the writer's layout included, takes the general reader, which
parses the whole text and reads each distinct section once. Both give
``_group_blocks`` their runs of steps in file order, so one rule forms the
blocks, and both share bodies with equal text: where both load a text they
return the same plan.
"""

from __future__ import annotations

import itertools
import json
import marshal
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .exact import toeplitz_spectrum
from .lattice import DiophantineResult, simultaneous_diophantine
from .linalg import (
    TridiagonalHamiltonian,
    operator_norm,
    require_count,
    require_number,
    require_numbers,
    require_positive,
    require_unitary,
    section_unitaries,
    toeplitz_eigenvalues,
)
from .reck import adjacent_expand, count_sections, two_level_decompose
from .su2 import synthesize_su2

SECTION_A = "A"
SECTION_B = "B"
SECTION_GAP = "gap"

PLAN_SCHEMA_VERSION = 1

#: A section's provenance fields, in file order.
_PROVENANCE = ("factor_index", "su2_index", "trotter_step")
#: The exact types of the usual provenance values (a bool's type is not int).
_PROVENANCE_TYPES = {int, type(None)}
#: The writer's layout around the sections: the key that opens the list, the
#: text between two sections, the text that closes a section and the text
#: that closes the list and the file.
_SECTIONS_KEY = '"sections": '
_SECTION_SEP = ",\n    "
_SECTION_CLOSE = "\n    }"
_SECTIONS_END = "\n  ]\n}"
_NOT_LAYOUT = "plan text is not laid out as to_json writes it"
#: A section as ``json.dumps(payload, indent=2)`` lays it out: the text before
#: its provenance, its provenance from (factor_index, su2_index, trotter_step)
#: and the text after its provenance.
_BODY_HEAD = """{
      "kind": %s,
      "betas": %s,
      "couplings": %s,
      "length_m": %s,
      """
_PROVENANCE_LAYOUT = """"provenance": {
        "factor_index": %s,
        "su2_index": %s,
        "trotter_step": %s
      }"""
_BODY_TAIL = """,
      "reduced_phases": %s
    }"""
#: An int as ``"%d"`` formats it, the only way the writer writes one.
_INT_TEXT = r"0|-?[1-9][0-9]*"
#: A section's provenance as the writer lays it out, each value null or an int.
_PROVENANCE_TEXT = re.compile(re.escape(_PROVENANCE_LAYOUT) % ((f"(null|{_INT_TEXT})",) * 3))


class PlanError(RuntimeError):
    """Planning failed structurally (e.g. no usable recurrence length)."""


class GapInfeasible(ValueError):
    """Gap compensation drove a background parameter non-positive; use larger
    background windings or a smaller gap."""


def _require_design(d: int, length: float, steps: int, j1: int, j2: int):
    require_count(d, "d", 2)
    require_positive(length, "section length")
    require_count(steps, "trotter_steps")
    require_count(j1, "j1")
    require_count(j2, "j2")


@dataclass(frozen=True)
class TrotterConfig:
    """Resolved background design shared by every planned pair.

    background_coupling = 2 pi j1 and background_beta = 2 pi j2 / q make the
    background evolution over the recurrence length q - L/N equal to the
    backward step e^{+iB L/N} up to the certified residuals. All lengths,
    the recurrence denominator q included, are in meters. q is the one
    stored part of the certificate: ``recurrence`` derives the rest from q
    and the exact background eigenvalues, in compile and when a plan file is
    loaded alike, and must meet the budget ``epsilon``.
    """

    dimension: int
    section_length: float
    trotter_steps: int
    j1: int
    j2: int
    q: int

    def __post_init__(self):
        _require_design(self.dimension, self.section_length, self.trotter_steps, self.j1, self.j2)
        require_count(self.q, "q")
        if self.recurrence.epsilon > self.epsilon:
            raise ValueError(
                f"q {self.q} certifies {self.recurrence.epsilon:g}, above the budget {self.epsilon:g}"
            )

    @property
    def epsilon(self) -> float:
        """The precision budget ``epsilon_budget(d, L, N, j1)``."""
        return self.epsilon_budget(self.dimension, self.section_length, self.trotter_steps, self.j1)

    @cached_property
    def recurrence(self) -> DiophantineResult:
        """The certificate of q for the exact background eigenvalues."""
        return DiophantineResult(toeplitz_spectrum(self.dimension), self.q)

    @staticmethod
    def epsilon_budget(d: int, section_length: float, trotter_steps: int, j1: int = 1) -> float:
        """Largest Diophantine epsilon that keeps the recurrence error below
        the Trotter error: L^2 / (2 pi j1 d N^2)."""
        return section_length**2 / (2.0 * math.pi * j1 * d * trotter_steps**2)

    @classmethod
    def plan(
        cls, dimension: int, section_length: float, trotter_steps: int, j1: int = 1, j2: int = 1
    ) -> "TrotterConfig":
        """The design at the precision budget ``epsilon_budget(d, L, N, j1)``."""
        _require_design(dimension, section_length, trotter_steps, j1, j2)
        epsilon = cls.epsilon_budget(dimension, section_length, trotter_steps, j1)
        q = simultaneous_diophantine(toeplitz_spectrum(dimension), epsilon).denominator
        shortfall = q - section_length / trotter_steps
        if shortfall <= 0.0:
            raise PlanError(f"q - L/N = {shortfall:g} m: the recurrence length must be positive")
        return cls(int(dimension), float(section_length), int(trotter_steps), int(j1), int(j2), q)

    @property
    def background_coupling(self) -> float:
        return 2.0 * math.pi * self.j1

    @property
    def background_beta(self) -> float:
        return 2.0 * math.pi * self.j2 / self.q

    @property
    def recurrence_length(self) -> float:
        """L~ = q - L/N in meters."""
        return self.q - self.section_length / self.trotter_steps

    def background_eigenvalues(self) -> np.ndarray:
        return self.background_coupling * toeplitz_eigenvalues(self.dimension) + self.background_beta

    def background_hamiltonian(self) -> TridiagonalHamiltonian:
        d = self.dimension
        return TridiagonalHamiltonian(
            betas=np.full(d, self.background_beta),
            couplings=np.full(d - 1, self.background_coupling),
            length=self.recurrence_length,
        )

    def recurrence_phases(self) -> np.ndarray:
        """Eigenphases of e^{-i B L~}, reduced symbolically.

        lambda~_j L~  ==  2 pi j1 Delta_j - lambda~_j L/N   (mod 2 pi),
        using lambda_j q = p_j + Delta_j and the integer windings; every term
        on the right is small, so no precision is lost to the ~1e10 rad raw
        phases.
        """
        residuals = np.asarray(self.recurrence.residuals)
        return (
            2.0 * math.pi * self.j1 * residuals
            - self.background_eigenvalues() * (self.section_length / self.trotter_steps)
        )

    def recurrence_error(self) -> float:
        """||e^{-i B L~} - e^{+i B L/N}||, equal to max_j |e^{-2 pi i j1 Delta_j} - 1|."""
        residuals = np.asarray(self.recurrence.residuals)
        return float(np.max(np.abs(np.exp(-2j * math.pi * self.j1 * residuals) - 1.0)))


def plan_trotter_pair(
    section: TridiagonalHamiltonian, mode: int, config: TrotterConfig
) -> TridiagonalHamiltonian:
    """The drive section A of one Trotter pair for a 2-mode section embedded
    at (mode, mode+1): the uniform background plus the section's levels and
    coupling at the target modes, over one step L/N.

    Its partner is the bare background ``config.background_hamiltonian()``;
    A minus that background is zero off the block, bitwise.
    """
    d = config.dimension
    if not 1 <= mode <= d - 1:
        raise ValueError(f"mode {mode} out of range for d={d}")
    if section.dimension != 2:
        raise ValueError(f"expected a 2-mode section, got {section.dimension} modes")
    bg_beta = config.background_beta
    bg_coupling = config.background_coupling
    betas = np.full(d, bg_beta)
    betas[mode - 1 : mode + 1] += section.betas
    couplings = np.full(d - 1, bg_coupling)
    couplings[mode - 1] += section.couplings[0]
    step = config.section_length / config.trotter_steps
    return TridiagonalHamiltonian(betas=betas, couplings=couplings, length=step)


def gap_compensate(
    section_b: TridiagonalHamiltonian, gap: TridiagonalHamiltonian
) -> TridiagonalHamiltonian:
    """The electrode that reproduces the uniform recurrence section e^{-i B L~}
    exactly between two copies of the zero-voltage ``gap`` (uniform sections
    commute): beta' = (beta0~ L~ - 2 beta0 dL)/L' and likewise for the
    coupling, with L' = L~ - 2 dL and dL the gap's length. Raises
    GapInfeasible when a rescaled parameter is not strictly positive.
    """
    if not (section_b.is_uniform() and gap.is_uniform()):
        raise ValueError("gap compensation requires a uniform (Toeplitz) section and gap")
    if gap.dimension != section_b.dimension:
        raise ValueError(f"gap has {gap.dimension} modes, the section {section_b.dimension}")
    length, gap_length = section_b.length, gap.length
    electrode = require_positive(length - 2.0 * gap_length, "electrode length L~ - 2 dL")
    adjusted_beta = (section_b.betas[0] * length - 2.0 * gap.betas[0] * gap_length) / electrode
    adjusted_coupling = (
        section_b.couplings[0] * length - 2.0 * gap.couplings[0] * gap_length
    ) / electrode
    if adjusted_beta <= 0.0 or adjusted_coupling <= 0.0:
        raise GapInfeasible(
            f"compensation gives beta'={adjusted_beta:g}, C'={adjusted_coupling:g}; "
            "increase the background windings j1/j2 or shrink the gap"
        )
    d = section_b.dimension
    return TridiagonalHamiltonian(
        betas=np.full(d, adjusted_beta),
        couplings=np.full(d - 1, adjusted_coupling),
        length=electrode,
    )


@dataclass(frozen=True)
class PlanSection:
    """One physical section of a chip plan.

    ``reduced_phases``, when present, are the eigenphases of the section
    unitary in the shared sine basis, already reduced mod 2 pi symbolically;
    recurrence sections are kilometers to gigameters long and their raw
    eigenvalue-length products cannot be trusted in double precision.
    The provenance fields (factor_index, su2_index, trotter_step) are each an
    int or None.

    A section's body is everything but its provenance, and ``_text`` is the
    body's identity: equal texts are equal bodies, bit for bit, since floats
    are written as round-trip reprs (so -0.0 and 0.0 stay apart).
    """

    kind: str
    hamiltonian: TridiagonalHamiltonian
    factor_index: int | None = None
    su2_index: int | None = None
    trotter_step: int | None = None
    reduced_phases: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (SECTION_A, SECTION_B, SECTION_GAP):
            raise ValueError(f"bad section kind {self.kind!r}")
        if self.reduced_phases is not None and not self.hamiltonian.is_uniform():
            raise ValueError("reduced phases only apply to uniform sections")
        _require_provenance((self.factor_index, self.su2_index, self.trotter_step), _PROVENANCE)

    def unitary(self) -> np.ndarray:
        """The section's evolution: its ``reduced_phases`` in the sine basis
        when it has them, else its Hamiltonian's over its length."""
        return section_unitaries([self.hamiltonian], [self.reduced_phases])[0]

    @cached_property
    def _text(self) -> tuple[str, str]:
        """The section's text in a plan file before its provenance and after
        it, laid out as ``json.dumps(payload, indent=2)`` writes them."""
        h = self.hamiltonian
        phases = "null" if self.reduced_phases is None else _list_text(self.reduced_phases)
        return (
            _BODY_HEAD % (json.dumps(self.kind), _list_text(h.betas.tolist()),
                          _list_text(h.couplings.tolist()), json.dumps(h.length)),
            _BODY_TAIL % phases,
        )


@dataclass(frozen=True)
class PlanBlock:
    """A run of Trotter steps that repeat the same section bodies.

    ``bodies`` are the sections of one step in physical order, without
    provenance; the block's sections are every body, in order, once for each
    entry of ``trotter_steps``, all carrying ``factor_index`` and
    ``su2_index``. Provenance values are each an int or None.
    """

    bodies: tuple[PlanSection, ...]
    factor_index: int | None
    su2_index: int | None
    trotter_steps: tuple[int | None, ...]

    def __post_init__(self):
        if not self.bodies:
            raise ValueError("a plan block needs at least one section body")
        _require_provenance((self.factor_index, self.su2_index), _PROVENANCE)
        _require_provenance(self.trotter_steps, itertools.repeat("trotter_step"))


def cascade_unitary(dimension: int, blocks) -> np.ndarray:
    """The product of run-length ``PlanBlock``s on ``dimension`` modes, first
    section applied first, for plans and every other chip (``device.realize``).
    The unitaries of all distinct body objects are formed in one
    ``section_unitaries`` call. A block of n steps applies its step
    S = (last body) ... (first body) as S^n by binary powering: the bodies
    one by one if n is odd, then S^2, S^4, ... for the higher set bits.
    Blocks with equal body and step counts form these factors together, each
    product one stacked matmul; the factors are then applied block by block.
    A one-step block is the flat product bit for bit; the others stay within
    3e-13 of the exact product (d <= 6, N <= 32)."""
    # the distinct bodies in order of first use; a block of no steps applies nothing
    bodies = {id(body): body for block in blocks if block.trotter_steps for body in block.bodies}
    rows = dict(zip(bodies, itertools.count()))  # id of a body -> its row in the stack
    # (body count, step count) -> the blocks of that shape and their rows
    groups: dict[tuple[int, int], tuple[list[int], list[list[int]]]] = {}
    for i, block in enumerate(blocks):
        if block.trotter_steps:
            shape = (len(block.bodies), len(block.trotter_steps))
            members, index = groups.setdefault(shape, ([], []))
            members.append(i)
            index.append([rows[id(body)] for body in block.bodies])
    if bodies:
        units = section_unitaries([body.hamiltonian for body in bodies.values()],
                                  [body.reduced_phases for body in bodies.values()])
    factors = [()] * len(blocks)
    for (_, n), (members, index) in groups.items():
        mats = units[np.array(index)]
        applied = []
        while n:
            if n & 1:
                applied.append(mats)
            n >>= 1
            if n:
                step = reduce(lambda product, mat: mat @ product, mats.swapaxes(0, 1))
                mats = (step @ step)[:, None]
        for i, block_factors in zip(members, np.concatenate(applied, axis=1)):
            factors[i] = block_factors
    u = np.eye(dimension, dtype=complex)
    for block_factors in factors:
        for mat in block_factors:
            u = mat @ u
    return u


@dataclass
class ChipPlan:
    """Ordered physical sections realizing a target unitary, plus metadata.

    The sections are held as run-length ``blocks``; ``sections`` is the flat
    list they expand to. ``section_budget`` is the architectural count K:
    4 K~ N alternating pairs for d > 2, the at-most-four exact sections for
    d = 2. The actual emitted count is len(sections) and never exceeds the
    budget's A-section share.
    """

    dimension: int
    trotter_steps: int
    section_budget: int
    section_length: float
    blocks: list[PlanBlock]
    measured_error: float | None = None
    global_phase: float = 0.0
    config: TrotterConfig | None = None
    target_name: str | None = None

    @property
    def epsilon_certificate(self) -> float | None:
        """The recurrence certificate the config carries, None without one."""
        return None if self.config is None else self.config.recurrence.epsilon

    @property
    def sections(self) -> list[PlanSection]:
        """The physical sections in order: a new list of new PlanSections,
        each sharing its body's Hamiltonian and phases objects."""
        return [
            PlanSection(
                body.kind, body.hamiltonian, block.factor_index, block.su2_index, step,
                body.reduced_phases,
            )
            for block in self.blocks
            for step in block.trotter_steps
            for body in block.bodies
        ]

    def realize(self) -> np.ndarray:
        """Cascade product, first section applied first: ``cascade_unitary``
        of the plan's blocks."""
        return cascade_unitary(self.dimension, self.blocks)

    def to_json(self) -> str:
        """Schema v1 text: ``json.dumps(payload, indent=2)`` of the whole plan,
        each block laid out by ``_block_pieces``, all joined once. A body's
        text is formed once per object, and compiled and loaded plans hold one
        object per distinct body, so each is encoded once.
        """
        pieces = [_head_text(self), "[\n    "]
        step_texts: dict[tuple, list[str]] = {}  # blocks mostly share one steps tuple
        for b in self.blocks:
            values = step_texts.get(b.trotter_steps)
            if values is None:
                values = step_texts[b.trotter_steps] = list(map(_int_text, b.trotter_steps))
            pieces += _block_pieces(b.factor_index, b.su2_index, values, b.bodies)
        pieces[-1] = _SECTIONS_END if len(pieces) > 2 else "[]\n}"
        return "".join(pieces)

    @classmethod
    def from_json(cls, text: str) -> "ChipPlan":
        """Load schema v1 text. Every section body is checked, and bodies with
        equal text (``PlanSection._text``) share one object, wherever they
        are in the file. Consecutive sections with equal provenance form one
        step, and ``_group_blocks`` forms the blocks.

        ``_read_layout`` reads what ``to_json`` writes for compiled plans;
        any other text goes to ``_read_general``, which reads any JSON
        layout and raises the errors of the checks.
        """
        try:
            return _read_layout(cls, text)
        except Exception:
            # Any layout mismatch or failed check, whatever its type: the
            # general reader decides, and loads the text or raises.
            pass
        return _read_general(cls, text)


def _read_metadata(payload) -> dict:
    """The checked ``ChipPlan`` fields, all but the blocks, of a parsed plan
    file. Its config is built from j1, j2 and q, and every value the writer
    derives from them must be stored as the writer writes it."""
    payload = _require_json(payload, dict, "plan JSON")
    if payload.get("schema_version") != PLAN_SCHEMA_VERSION:
        raise ValueError(f"unsupported plan schema {payload.get('schema_version')!r}")
    meta = _require_json(payload["metadata"], dict, "plan metadata")
    d, trotter_steps, budget = (
        require_count(meta[key], f"plan metadata {key}") for key in ("d", "N", "K")
    )
    section_length = require_positive(meta["section_length_m"], "plan section_length_m")
    config = None
    raw_cfg = meta.get("config")
    if raw_cfg is not None:
        try:
            config = TrotterConfig(
                d, section_length, trotter_steps, raw_cfg["j1"], raw_cfg["j2"], raw_cfg["q"]
            )
            for key, value in _config_payload(config).items():
                _require_written(raw_cfg[key], value, key, "what j1, j2 and q give:")
        except ValueError as exc:
            if _float_certified(d, raw_cfg):
                raise ValueError(
                    f"{exc} (this plan's q was certified on the float64-rounded eigenvalues, "
                    "as older versions wrote plans: compile it again)"
                ) from None
            raise
        compiled_budget = 4 * count_sections(d) * trotter_steps
        if budget != compiled_budget:
            raise ValueError(
                f"plan K {budget} is not 4 * count_sections(d) * N = {compiled_budget}"
            )
    _require_written(
        meta.get("epsilon_certificate"), None if config is None else config.recurrence.epsilon,
        "epsilon_certificate", "its achieved_epsilon",
    )
    measured_error = meta.get("measured_error")
    if measured_error is not None:
        require_number(measured_error, "plan measured_error")
    return dict(
        dimension=d,
        trotter_steps=trotter_steps,
        section_budget=budget,
        section_length=section_length,
        measured_error=measured_error,
        global_phase=require_number(meta.get("global_phase", 0.0), "plan global_phase"),
        config=config,
        target_name=meta.get("target_name"),
    )


def _float_certified(d: int, raw_cfg: dict) -> bool:
    """Whether a plan file's ``config`` holds its q's certificate on the
    float64-rounded eigenvalues, which versions before the exact spectrum
    search wrote."""
    try:
        stale = DiophantineResult(toeplitz_eigenvalues(d), raw_cfg["q"])
    except (KeyError, ValueError):
        return False
    return marshal.dumps([raw_cfg.get("residuals"), raw_cfg.get("achieved_epsilon")], 2) == (
        marshal.dumps([list(stale.residuals), stale.epsilon], 2)
    )


def _config_payload(config: TrotterConfig) -> dict:
    """The ``config`` object of a plan file: j1, j2 and q, and what they give."""
    r = config.recurrence
    return dict(
        j1=config.j1, j2=config.j2, epsilon=config.epsilon, recurrence_unit=1.0, q=config.q,
        numerators=list(r.numerators), residuals=list(r.residuals), achieved_epsilon=r.epsilon,
    )


def _require_written(value, expected, key: str, source: str) -> None:
    """Check that a plan file's ``value`` for ``key`` is ``expected`` as the
    writer writes it: an int where it writes an int, floats bit for bit."""
    # As in _read_general, marshal's bytes tell 1 from 1.0 and true, and 0.0 from -0.0.
    if marshal.dumps(value, 2) != marshal.dumps(expected, 2):
        raise ValueError(f"plan {key} {value!r} is not {source} {expected!r}")


def _head_text(plan: ChipPlan) -> str:
    """The schema v1 text of ``plan`` up to its sections list, which starts
    right after the returned text."""
    payload = {
        "schema_version": PLAN_SCHEMA_VERSION,
        "metadata": {
            "d": plan.dimension,
            "N": plan.trotter_steps,
            "K": plan.section_budget,
            "measured_error": plan.measured_error,
            "epsilon_certificate": plan.epsilon_certificate,
            "section_length_m": plan.section_length,
            "global_phase": plan.global_phase,
            "target_name": plan.target_name,
            "config": None if plan.config is None else _config_payload(plan.config),
        },
        "sections": [],
    }
    return json.dumps(payload, indent=2)[: -len("[]\n}")]


def _block_pieces(factor_index, su2_index, values: list[str], bodies) -> list[str]:
    """A block's file text, to be joined: for each step's ``trotter_step``
    text in ``values`` (``_int_text``), each body's cached ``_text`` around
    the step's provenance, then ``_SECTION_SEP``. One step's text is formed
    once, split at its ``trotter_step`` value, and each step repeats those
    parts with its own value at the splits."""
    # json.dumps escapes every control character, so no body text holds "\0".
    provenance = _PROVENANCE_LAYOUT % (_int_text(factor_index), _int_text(su2_index), "\0")
    parts = _SECTION_SEP.join(
        before + provenance + after for before, after in (body._text for body in bodies)
    ).split("\0")
    width = 2 * len(parts)
    step = [_SECTION_SEP] * width
    step[::2] = parts
    pieces = step * len(values)
    for i in range(1, width - 1, 2):
        pieces[i::width] = values
    return pieces


def _read_general(cls, text: str) -> ChipPlan:
    """The plan of any JSON ``text``, section by section in file order: each
    section's provenance is checked, then its body is read (once for each
    distinct section) and shared with every body of equal text."""
    payload = json.loads(text)
    plan = cls(**_read_metadata(payload), blocks=[])
    # marshal (version 2, which writes no back-references) gives equal
    # bytes only for equal values of equal types: 1 and 1.0, true and 1,
    # 0.0 and -0.0 all differ.
    read: dict[bytes, PlanSection] = {}
    bodies: dict[tuple[str, str], PlanSection] = {}
    runs: list[tuple] = []  # one (factor_index, su2_index, (step,), bodies) per step
    key = None
    for item in _require_json(payload["sections"], list, "plan sections"):
        provenance = _require_json(
            _require_json(item, dict, "plan section").pop("provenance"), dict,
            "section provenance",
        )
        values = tuple(map(provenance.get, _PROVENANCE))
        _require_provenance(values, _PROVENANCE)
        raw = marshal.dumps(item, 2)
        body = read.get(raw)
        if body is None:
            body = _read_body(item, plan.dimension)
            body = read[raw] = bodies.setdefault(body._text, body)
        if values != key:
            key = values
            runs.append((key[0], key[1], key[2:], []))
        runs[-1][3].append(body)
    plan.blocks = _group_blocks(runs)
    return plan


def _read_layout(cls, text: str) -> ChipPlan:
    """The plan of ``text`` if it is exactly ``to_json()`` of a plan whose
    blocks each repeat their bodies over all of the plan's steps (``range(N)``
    with a config, the single step None without); any other text raises.

    The metadata must re-encode to its text. A block's first step is read
    section by section, each distinct body parsed and checked once; then the
    block's text as ``_block_pieces`` lays it out must stand in the file.
    Each such block is one run for ``_group_blocks``. Nothing is sized by the
    file's N before the text left could hold N first steps.
    """
    start = text.index(_SECTIONS_KEY) + len(_SECTIONS_KEY)
    plan = cls(**_read_metadata(json.loads(text[:start] + "[]\n}")), blocks=[])
    head = _head_text(plan)
    if text == head + "[]\n}":
        return plan
    if not text.startswith(head + "[\n    "):
        raise ValueError(_NOT_LAYOUT)
    walk = range(plan.trotter_steps) if plan.config is not None else (None,)
    bodies: dict[tuple[str, str], PlanSection] = {}
    runs: list[tuple] = []  # one (factor_index, su2_index, steps, bodies) per block
    steps, pos = None, len(head) + len("[\n    ")
    while True:
        # The first step: the sections from ``block_start`` with one provenance.
        first, key, block_start = [], None, pos
        while True:
            end = text.index(_SECTION_CLOSE, pos) + len(_SECTION_CLOSE)
            found = _PROVENANCE_TEXT.search(text, pos, end)
            if found is None:
                raise ValueError(_NOT_LAYOUT)
            values = tuple(None if value == "null" else int(value) for value in found.groups())
            if key is not None and values != key:
                break
            key, step_end = values, end
            masked = (text[pos : found.start()], text[found.end() : end])
            body = bodies.get(masked)
            if body is None:
                body = bodies[masked] = _read_body(json.loads(text[pos:end]), plan.dimension)
            first.append(body)
            if not text.startswith(_SECTION_SEP, end):
                break
            pos = end + len(_SECTION_SEP)
        # No later step is shorter than the first.
        if (step_end - block_start) * len(walk) > len(text) - block_start:
            raise ValueError(_NOT_LAYOUT)
        if steps is None:
            steps = tuple(walk)
            step_texts = list(map(_int_text, steps))
        # All but the last separator: the list's end may stand there instead.
        block_text = "".join(_block_pieces(key[0], key[1], step_texts, first)[:-1])
        if not text.startswith(block_text, block_start):
            raise ValueError(_NOT_LAYOUT)
        runs.append((key[0], key[1], steps, first))
        pos = block_start + len(block_text)
        if text.startswith(_SECTIONS_END, pos) and len(text) == pos + len(_SECTIONS_END):
            plan.blocks = _group_blocks(runs)
            return plan
        if not text.startswith(_SECTION_SEP, pos):
            raise ValueError(_NOT_LAYOUT)
        pos += len(_SECTION_SEP)


def _group_blocks(runs) -> list[PlanBlock]:
    """The run-length blocks of ``runs``, each ``(factor_index, su2_index,
    step values, bodies)``, in file order: the one grouping rule of both
    readers. A run joins the block before it when it has the block's factor
    and su2 index and the block's body objects, in order."""
    blocks = []
    for _, group in itertools.groupby(runs, lambda run: (*run[:2], *map(id, run[3]))):
        factor, su2, steps, bodies = next(group)
        steps = (*steps, *(step for run in group for step in run[2]))
        blocks.append(PlanBlock(tuple(bodies), factor, su2, steps))
    return blocks


def _require_provenance(values, names) -> None:
    """Check that each of ``values`` is an int (not a bool) or None; the
    error names the provenance field from the matching entry of ``names``."""
    if set(map(type, values)) <= _PROVENANCE_TYPES:
        return
    for value, name in zip(values, names):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"provenance {name} must be an integer or null, got {value!r}")


def _require_json(value, kind: type, what: str):
    """``value``, which must be a JSON object (``dict``) or array (``list``)."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def _read_body(item: dict, d: int) -> PlanSection:
    """The checked section body of a plan file's section ``item``."""
    hamiltonian = TridiagonalHamiltonian(
        betas=require_numbers(item["betas"], "plan betas"),
        couplings=require_numbers(item["couplings"], "plan couplings"),
        length=require_number(item["length_m"], "plan length_m"),
    )
    if hamiltonian.dimension != d:
        raise ValueError(f"plan section has {hamiltonian.dimension} modes, metadata d is {d}")
    phases = item.get("reduced_phases")
    if phases is not None:
        phases = tuple(map(float, require_numbers(phases, "plan reduced_phases")))
        if len(phases) != d or not all(map(math.isfinite, phases)):
            raise ValueError(f"plan reduced_phases must be {d} finite numbers")
    return PlanSection(kind=item["kind"], hamiltonian=hamiltonian, reduced_phases=phases)


def _int_text(value: int | None) -> str:
    return "null" if value is None else "%d" % value


def _list_text(values) -> str:
    """A list of numbers as the stdlib encoder lays it out three levels deep."""
    text = json.dumps(values)
    if text == "[]":
        return text
    return "[\n        " + text[1:-1].replace(", ", ",\n        ") + "\n      ]"


def _gap_windings_for_feasibility(
    config: TrotterConfig, gap: TridiagonalHamiltonian
) -> tuple[int, int]:
    """Smallest (j1, j2) keeping both compensated parameters positive."""
    zero_beta, zero_coupling = float(gap.betas[0]), float(gap.couplings[0])
    rec_length = config.recurrence_length
    # background_beta * rec_length = 2 pi j2 * rec_length / q must exceed 2 beta0 dL
    j2 = max(config.j2, math.floor(zero_beta * gap.length * config.q / (math.pi * rec_length)) + 1)
    # background_coupling * rec_length = 2 pi j1 rec_length must exceed 2 C0 dL
    j1 = max(config.j1, math.floor(zero_coupling * gap.length / (math.pi * rec_length)) + 1)
    return j1, j2


def _recurrence_sections(
    config: TrotterConfig, gap: TridiagonalHamiltonian | None
) -> list[PlanSection]:
    """The physical sections that realize one recurrence step e^{-i B L~}:
    the bare background, or a compensated electrode between two gaps."""
    rec_phases = config.recurrence_phases()
    if gap is None:
        return [
            PlanSection(
                kind=SECTION_B,
                hamiltonian=config.background_hamiltonian(),
                reduced_phases=tuple(float(x) for x in rec_phases),
            )
        ]
    electrode = gap_compensate(config.background_hamiltonian(), gap)
    gap_phases = (
        gap.betas[0] + gap.couplings[0] * toeplitz_eigenvalues(config.dimension)
    ) * gap.length
    gap_section = PlanSection(
        kind=SECTION_GAP, hamiltonian=gap, reduced_phases=tuple(float(x) for x in gap_phases)
    )
    electrode_section = PlanSection(
        kind=SECTION_B,
        hamiltonian=electrode,
        reduced_phases=tuple(float(x) for x in rec_phases - 2.0 * gap_phases),
    )
    return [gap_section, electrode_section, gap_section]


def compile_unitary(
    target,
    section_length: float = 6e-3,
    trotter_steps: int = 8,
    j1: int = 1,
    j2: int = 1,
    gap: TridiagonalHamiltonian | None = None,
    prune_identity: bool = False,
    measure: bool = True,
    target_name: str | None = None,
) -> ChipPlan:
    """Full pipeline: decompose, synthesize, Trotterize, optionally compensate gaps.

    For d = 2 the four-section synthesis is already physical: each section is
    emitted once, bare, and the plan is exact. For d > 2 each synthesized
    section becomes N (B, A) pairs in physical order B-first, matching the
    product (e^{-iA L/N} e^{-iB L~})^N, held as one block. ``gap``, when given, is the uniform
    zero-voltage section that brackets every recurrence electrode; its length
    is the gap length.
    """
    u = require_unitary(target, atol=1e-8, what="target")
    d = u.shape[0]
    if gap is not None and d == 2:
        raise ValueError("gap compensation applies to recurrence sections; exact d=2 plans have none")
    if gap is not None and gap.dimension != d:
        raise ValueError(f"gap has {gap.dimension} modes, the target {d}")
    _require_design(d, section_length, trotter_steps, j1, j2)
    ops = adjacent_expand(two_level_decompose(u), d, prune_identity=prune_identity)

    config, steps, recurrence = None, (None,), []
    if d > 2:
        config = TrotterConfig.plan(d, section_length, trotter_steps, j1, j2)
        if gap is not None:
            need_j1, need_j2 = _gap_windings_for_feasibility(config, gap)
            if need_j1 != config.j1:  # a new budget, so a new q
                config = TrotterConfig.plan(d, section_length, trotter_steps, need_j1, need_j2)
            elif need_j2 != config.j2:  # the budget and q do not depend on j2
                config = replace(config, j2=need_j2)
        steps = tuple(range(config.trotter_steps))
        recurrence = _recurrence_sections(config, gap)

    blocks = []
    # One synthesis per distinct 2x2 factor and one drive per distinct (mode,
    # section) value, both for this call only.
    synthesized: dict[bytes, list[TridiagonalHamiltonian]] = {}
    drives: dict[tuple, PlanSection] = {}
    for op_index, op in enumerate(ops):
        factor = op.matrix.tobytes()
        sections = synthesized.get(factor)
        if sections is None:
            sections = synthesized[factor] = synthesize_su2(op.matrix, section_length)
        for su2_index, sec in enumerate(sections):
            key = (op.mode, sec.betas.tobytes(), sec.couplings.tobytes(), sec.length)
            drive = drives.get(key)
            if drive is None:
                drive = drives[key] = PlanSection(
                    kind=SECTION_A,
                    hamiltonian=sec if config is None else plan_trotter_pair(sec, op.mode, config),
                )
            blocks.append(PlanBlock((*recurrence, drive), op_index, su2_index, steps))

    plan = ChipPlan(
        dimension=d,
        trotter_steps=len(steps),
        section_budget=4 * count_sections(d) * len(steps),
        section_length=section_length,
        blocks=blocks,
        global_phase=float(np.angle(np.linalg.det(u))),
        config=config,
        target_name=target_name,
    )
    if measure:
        plan.measured_error = operator_norm(u - plan.realize())
    return plan
