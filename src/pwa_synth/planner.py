"""Trotter planning: turn embedded 2-mode sections into physical cascades.

Every section, from synthesis to plan, is a ``TridiagonalHamiltonian``.
Each synthesized 2-mode section, embedded at modes (m, m+1) of a d-mode
array, becomes N alternating pairs: a drive section A carrying the 2x2
block on top of a uniform positive background, and a recurrence section B
equal to the bare background. The pair implements e^{-i(A-B)L} in the
large-N limit; the backward evolution e^{+iB L/N} is realized as forward
propagation over the recurrence length q - L/N, with q certified by
simultaneous Diophantine approximation of the background eigenvalues; a q
no longer than L/N is a PlanError. Electrode gaps around B sections are the
caller's zero-voltage section and are compensated exactly because everything
uniform commutes. At d = 2 the synthesized sections are the plan.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .lattice import DiophantineResult, simultaneous_diophantine
from .linalg import (
    TridiagonalHamiltonian,
    assemble_unitary,
    operator_norm,
    require_unitary,
    toeplitz_eigenvalues,
    toeplitz_eigenvectors,
)
from .reck import adjacent_expand, count_sections, two_level_decompose
from .su2 import _require_length, synthesize_su2

SECTION_A = "A"
SECTION_B = "B"
SECTION_GAP = "gap"

PLAN_SCHEMA_VERSION = 1

#: A section's provenance object as the stdlib encoder writes it three levels deep.
_PROVENANCE_TEXT = (
    '{\n        "factor_index": %s,\n        "su2_index": %s,\n        "trotter_step": %s\n      }'
)


class PlanError(RuntimeError):
    """Planning failed structurally (e.g. no usable recurrence length)."""


class GapInfeasible(ValueError):
    """Gap compensation drove a background parameter non-positive; use larger
    background windings or a smaller gap."""


@functools.lru_cache(maxsize=None)
def _cached_recurrence(d: int, eps: float) -> DiophantineResult:
    return simultaneous_diophantine(tuple(toeplitz_eigenvalues(d)), eps)


def _require_design(d: int, length: float, steps: int, j1: int, j2: int):
    for name, value in (("d", d), ("trotter_steps", steps), ("j1", j1), ("j2", j2)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if d < 2:
        raise ValueError("need at least two modes")
    _require_length(length)
    if steps < 1:
        raise ValueError("trotter_steps must be a positive integer")
    if j1 < 1 or j2 < 1:
        raise ValueError("background windings j1, j2 must be positive integers")


@dataclass(frozen=True)
class TrotterConfig:
    """Resolved background design shared by every planned pair.

    background_coupling = 2 pi j1 and background_beta = 2 pi j2 / q make the
    background evolution over the recurrence length q - L/N equal to the
    backward step e^{+iB L/N} up to the certified residuals. All lengths,
    the recurrence denominator q included, are in meters.
    """

    dimension: int
    section_length: float
    trotter_steps: int
    j1: int
    j2: int
    epsilon: float
    recurrence: DiophantineResult

    def __post_init__(self):
        _require_design(self.dimension, self.section_length, self.trotter_steps, self.j1, self.j2)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        budget = self.epsilon_budget(self.dimension, self.section_length, self.trotter_steps, self.j1)
        if self.epsilon > budget * (1.0 + 1e-12):
            raise ValueError(
                f"epsilon {self.epsilon:g} exceeds the budget L^2/(2 pi j1 d N^2) = {budget:g}"
            )
        if self.recurrence.epsilon > self.epsilon:
            raise ValueError("recurrence certificate is looser than the configured epsilon")

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
        recurrence = _cached_recurrence(int(dimension), float(epsilon))
        shortfall = recurrence.denominator - section_length / trotter_steps
        if shortfall <= 0.0:
            raise PlanError(f"q - L/N = {shortfall:g} m: the recurrence length must be positive")
        return cls(
            dimension=int(dimension),
            section_length=float(section_length),
            trotter_steps=int(trotter_steps),
            j1=int(j1),
            j2=int(j2),
            epsilon=float(epsilon),
            recurrence=recurrence,
        )

    @property
    def background_coupling(self) -> float:
        return 2.0 * math.pi * self.j1

    @property
    def background_beta(self) -> float:
        return 2.0 * math.pi * self.j2 / self.recurrence.denominator

    @property
    def recurrence_length(self) -> float:
        """L~ = q - L/N in meters."""
        return self.recurrence.denominator - self.section_length / self.trotter_steps

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
    electrode = length - 2.0 * gap_length
    if electrode <= 0.0:
        raise ValueError(
            f"electrode length {electrode:g} m not positive: gap too long for the section"
        )
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
        for name in ("factor_index", "su2_index", "trotter_step"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"provenance {name} must be an integer or null, got {value!r}")

    def unitary(self) -> np.ndarray:
        if self.reduced_phases is None:
            return self.hamiltonian.unitary()
        basis = toeplitz_eigenvectors(self.hamiltonian.dimension)
        return assemble_unitary(basis, self.reduced_phases)


@dataclass
class ChipPlan:
    """Ordered physical sections realizing a target unitary, plus metadata.

    ``section_budget`` is the architectural count K: 4 K~ N alternating pairs
    for d > 2, the at-most-four exact sections for d = 2. The actual emitted
    count is len(sections) and never exceeds the budget's A-section share.
    """

    dimension: int
    trotter_steps: int
    section_budget: int
    section_length: float
    sections: list[PlanSection]
    measured_error: float | None = None
    epsilon_certificate: float | None = None
    global_phase: float = 0.0
    config: TrotterConfig | None = None
    target_name: str | None = None

    def realize(self) -> np.ndarray:
        """Cascade product, first section applied first."""
        u = np.eye(self.dimension, dtype=complex)
        # compile_unitary and from_json give the copies of a section one
        # Hamiltonian and one phases object, which the plan keeps alive, so
        # their identities key one evolution per body.
        cache: dict = {}
        for section in self.sections:
            key = (id(section.hamiltonian), id(section.reduced_phases))
            mat = cache.get(key)
            if mat is None:
                mat = cache[key] = section.unitary()
            u = mat @ u
        return u

    def to_json(self) -> str:
        """Schema v1 text: ``json.dumps(payload, indent=2)`` of the whole plan.

        Each distinct section body (kind, Hamiltonian object, reduced phases
        object) is encoded once; its copies differ only in provenance, which
        is spliced in per section. Provenance entries are ints or None, so
        formatting them directly matches the stdlib encoder.
        """
        payload = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "metadata": {
                "d": self.dimension,
                "N": self.trotter_steps,
                "K": self.section_budget,
                "measured_error": self.measured_error,
                "epsilon_certificate": self.epsilon_certificate,
                "section_length_m": self.section_length,
                "global_phase": self.global_phase,
                "target_name": self.target_name,
                "config": None
                if self.config is None
                else {
                    "j1": self.config.j1,
                    "j2": self.config.j2,
                    "epsilon": self.config.epsilon,
                    "recurrence_unit": 1.0,
                    "q": self.config.recurrence.denominator,
                    "numerators": list(self.config.recurrence.numerators),
                    "residuals": list(self.config.recurrence.residuals),
                    "achieved_epsilon": self.config.recurrence.epsilon,
                },
            },
            "sections": [],
        }
        text = json.dumps(payload, indent=2)
        if not self.sections:
            return text
        pieces = [text[: -len("[]\n}")], "[\n    "]
        bodies: dict = {}
        for s in self.sections:
            key = (s.kind, id(s.hamiltonian), id(s.reduced_phases))
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = _encode_body(s)
            provenance = (
                _int_text(s.factor_index), _int_text(s.su2_index), _int_text(s.trotter_step)
            )
            pieces += (body[0], _PROVENANCE_TEXT % provenance, body[1], ",\n    ")
        pieces[-1] = "\n  ]\n}"
        return "".join(pieces)

    @classmethod
    def from_json(cls, text: str) -> "ChipPlan":
        payload = _require_json(json.loads(text), dict, "plan JSON")
        if payload.get("schema_version") != PLAN_SCHEMA_VERSION:
            raise ValueError(f"unsupported plan schema {payload.get('schema_version')!r}")
        meta = _require_json(payload["metadata"], dict, "plan metadata")
        d, trotter_steps, budget = (_require_count(meta, key) for key in ("d", "N", "K"))
        section_length = float(meta["section_length_m"])
        if not (math.isfinite(section_length) and section_length > 0.0):
            raise ValueError(
                f"plan section_length_m must be positive and finite, got {section_length!r}"
            )
        config = None
        raw_cfg = meta.get("config")
        if raw_cfg is not None:
            if float(raw_cfg["recurrence_unit"]) != 1.0:
                raise ValueError("plan recurrence_unit must be 1.0: lengths are in meters")
            recurrence = DiophantineResult(
                denominator=int(raw_cfg["q"]),
                numerators=tuple(int(p) for p in raw_cfg["numerators"]),
                residuals=tuple(float(r) for r in raw_cfg["residuals"]),
                epsilon=float(raw_cfg["achieved_epsilon"]),
                requested=float(raw_cfg["epsilon"]),
            )
            config = TrotterConfig(
                dimension=d,
                section_length=section_length,
                trotter_steps=trotter_steps,
                j1=int(raw_cfg["j1"]),
                j2=int(raw_cfg["j2"]),
                epsilon=float(raw_cfg["epsilon"]),
                recurrence=recurrence,
            )
        # Copies of a section share one validated Hamiltonian and one phases
        # tuple. Hamiltonian entries are strictly positive, so equal JSON
        # values give equal float arrays; phases are keyed by their exact bits,
        # because 0.0 == -0.0. Every PlanSection check still runs on every copy.
        hamiltonians: dict = {}
        phase_tuples: dict = {}
        sections = []
        for item in _require_json(payload["sections"], list, "plan sections"):
            _require_json(item, dict, "plan section")
            key = (tuple(item["betas"]), tuple(item["couplings"]), item["length_m"])
            hamiltonian = hamiltonians.get(key)
            if hamiltonian is None:
                hamiltonian = hamiltonians[key] = TridiagonalHamiltonian(
                    betas=np.array(item["betas"]),
                    couplings=np.array(item["couplings"]),
                    length=float(item["length_m"]),
                )
                if hamiltonian.dimension != d:
                    raise ValueError(
                        f"plan section has {hamiltonian.dimension} modes, metadata d is {d}"
                    )
            phases = item.get("reduced_phases")
            if phases is not None:
                bits = array("d", map(float, phases))
                phases = phase_tuples.get(bits.tobytes())
                if phases is None:
                    if len(bits) != d or not all(map(math.isfinite, bits)):
                        raise ValueError(f"plan reduced_phases must be {d} finite numbers")
                    phases = phase_tuples[bits.tobytes()] = tuple(bits)
            provenance = _require_json(item["provenance"], dict, "section provenance")
            sections.append(
                PlanSection(
                    kind=item["kind"],
                    hamiltonian=hamiltonian,
                    factor_index=provenance.get("factor_index"),
                    su2_index=provenance.get("su2_index"),
                    trotter_step=provenance.get("trotter_step"),
                    reduced_phases=phases,
                )
            )
        return cls(
            dimension=d,
            trotter_steps=trotter_steps,
            section_budget=budget,
            section_length=section_length,
            sections=sections,
            measured_error=meta.get("measured_error"),
            epsilon_certificate=meta.get("epsilon_certificate"),
            global_phase=float(meta.get("global_phase", 0.0)),
            config=config,
            target_name=meta.get("target_name"),
        )


def _require_json(value, kind: type, what: str):
    """``value``, which must be a JSON object (``dict``) or array (``list``)."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def _require_count(meta: dict, key: str) -> int:
    """``meta[key]``, which must be a positive JSON integer."""
    value = meta[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"plan metadata {key} must be a positive integer, got {value!r}")
    return value


def _int_text(value: int | None) -> str:
    return "null" if value is None else "%d" % value


def _encode_body(section: PlanSection) -> tuple[str, str]:
    """The stdlib encoding of a section two levels deep, split where its
    provenance object goes."""
    text = json.dumps(
        {
            "kind": section.kind,
            "betas": [float(x) for x in section.hamiltonian.betas],
            "couplings": [float(x) for x in section.hamiltonian.couplings],
            "length_m": section.hamiltonian.length,
            "provenance": None,
            "reduced_phases": None
            if section.reduced_phases is None
            else list(section.reduced_phases),
        },
        indent=2,
    ).replace("\n", "\n    ")
    head, _, tail = text.partition('"provenance": null')
    return head + '"provenance": ', tail


def _gap_windings_for_feasibility(
    config: TrotterConfig, gap: TridiagonalHamiltonian
) -> tuple[int, int]:
    """Smallest (j1, j2) keeping both compensated parameters positive."""
    zero_beta, zero_coupling = float(gap.betas[0]), float(gap.couplings[0])
    rec_length = config.recurrence_length
    q = config.recurrence.denominator
    # background_beta * rec_length = 2 pi j2 * rec_length / q must exceed 2 beta0 dL
    j2 = max(config.j2, math.floor(zero_beta * gap.length * q / (math.pi * rec_length)) + 1)
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
    product (e^{-iA L/N} e^{-iB L~})^N. ``gap``, when given, is the uniform
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
            if (need_j1, need_j2) != (config.j1, config.j2):
                config = TrotterConfig.plan(d, section_length, trotter_steps, need_j1, need_j2)
        steps = range(config.trotter_steps)
        recurrence = _recurrence_sections(config, gap)

    sections: list[PlanSection] = []
    for op_index, op in enumerate(ops):
        for su2_index, sec in enumerate(synthesize_su2(op.matrix, section_length)):
            drive = sec if config is None else plan_trotter_pair(sec, op.mode, config)
            a_section = PlanSection(kind=SECTION_A, hamiltonian=drive)
            for step in steps:
                sections.extend(
                    PlanSection(
                        part.kind, part.hamiltonian, op_index, su2_index, step, part.reduced_phases
                    )
                    for part in (*recurrence, a_section)
                )

    plan = ChipPlan(
        dimension=d,
        trotter_steps=len(steps),
        section_budget=4 * count_sections(d) * len(steps),
        section_length=section_length,
        sections=sections,
        epsilon_certificate=None if config is None else config.recurrence.epsilon,
        global_phase=float(np.angle(np.linalg.det(u))),
        config=config,
        target_name=target_name,
    )
    if measure:
        plan.measured_error = operator_norm(u - plan.realize())
    return plan
