"""Conservative pairwise-exchange Monte Carlo kernels.

Every model is simulated on the constraint set picked out by its conserved
money-function total, by one kernel: the uniform pair split over slots,
with an optional bound.

Each kind holds one flat array of nonnegative slots in ``Population.cash``.
The slot kinds hold K = ``ModelSpec.n_slots`` shifted slots z = balance + d
>= 0, where d is the slot's overdraft (0 for cash and asset holdings):
- cash_only and overdraft: one slot per agent;
- multi_account: one slot per account, so the ``agent`` column of its
  ``samples.csv`` holds the account index;
- combined and restricted: N cash slots, then N account slots z = y + d;
- multi_asset: N·C slots, agent-major (agent i's class c is slot i·C + c).
The conserved value is sum(z) - sum(d), and the one move is the uniform
pair split: a matched pair of slots gets a uniform split of its sum. That
move leaves the uniform measure on the simplex of the K slots invariant, so
the stationary per-slot marginal is the exponential law with the model's
closed-form temperature. Shifting that law by the floor is the debt-limit
result of Dragulescu and Yakovenko (Eur. Phys. J. B 17, 723, 2000).

A kind may bound its slots: the same split is proposed, and a pair where a
slot would break the bound is rejected and keeps its values. With a
symmetric proposal and a uniform target this is Metropolis, so the uniform
law of the bounded set is stationary, and the bound holds exactly. The
bound is the one the population's data implies, ``Population.caps`` or
``Population.net``. ``Population.allows`` tests it with the float
expressions of the sweep loop, and ``check_invariants`` runs it over every
slot at every audit, so each audit re-checks the loop.
- restricted caps its account slots at z <= d (no positive balances).
- The credit market's ledger holds 2N slots, the agents' assets a and then
  their liabilities l, with the fixed net positions M (``Population.net``).
  Cash is derived, x = M + l - a, and never stored; its bound x >= 0 is
  tested as the one float expression a <= M + l. The loan sale is the split
  on the asset row, a_j + a_k; the debt assumption is the split on the
  liability row, l_j + l_k. Both keep every M_i, total credit and the
  monetary base fixed, so a chain stays on one fibre: the set of states
  with its initial M_i. The cash bound is a debt limit in the sense above,
  with the monetary base as the reserve of Xi, Ding and Wang (Physica A
  357, 543, 2005). ``"equal"`` samples the fibre M_i = V/N, where the assets
  are exponential only for V >> D (V the base, D the credit total);
  ``"uniform-random"`` samples the whole shell, where they are at every V.

``KERNELS`` holds one entry per simulable model kind: its initial
configurations, its move names (one per slot row), its recorded
coordinates and the marginals fitted to its samples.
``advance`` runs whole sweeps of disjoint pair events, and ``run_chain``
calls it up to each record and audit.

The sweeps, and the rows of ``samples.csv``, run in C, ``_native.c``. The
system's ``cc`` builds it once per user and machine (``_load_library`` keeps
it in the user's cache), and each process loads it with ``ctypes`` at first
use; numpy still draws every random number. The numpy sweep it replaced is
the reference in ``tests/test_dynamics.py``, and the loop must match it byte
for byte: slots, rejections and the random stream.

A sweep uses "shifted halves" matching over the K slots (the N agents, for
the credit market, whose moves act on one row of N slots). Once per epoch
of K // 2 sweeps, one random permutation splits them into halves A and B of
K // 2 each (for odd K the leftover one sits out that epoch), and one call
draws a shift r per sweep of the epoch; the sweep pairs A[i] with
B[(i + r) mod K // 2]. The split resamples its pair given the pair's total
and is symmetric in its two roles, so any pairing chosen independently of
the state keeps the uniform law invariant, and the shifts of one split
already connect all slots.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .ensembles import ModelKind, ModelSpec, MoneygasError, temperature_closed_form

AUDIT_INTERVAL = 100_000
CONSERVATION_RTOL = 1e-9
POLICIES = ("equal", "uniform-random")  # the starting configurations of init_population
_CAPPED_PROPOSALS = 1000  # restricted's "uniform-random" start gives up after this many
# Values per block (64 KiB of doubles) of every streamed pass over the records: a
# samples.csv chunk here, and the sort check, the KS check and Hill's selection in
# ``estimation``, which imports it.
STREAM_BLOCK = 8192


class DynamicsError(MoneygasError):
    """Invalid dynamics request (infeasible totals, bad window parameters)."""


class BuildError(DynamicsError):
    """The C compiler could not build the compiled library: the machine's fault, not the input's."""


class ConservationError(RuntimeError):
    """A conservation audit found drift beyond tolerance."""


@dataclass
class PairEpoch:
    """One split into halves A and B, and the shift of each of its pair sweeps."""

    order: np.ndarray  # a random permutation; A is its first N // 2 slots, B the next N // 2
    shifts: np.ndarray
    sweep: int = 0  # the sweeps of the epoch run so far

    @classmethod
    def draw(cls, n: int, rng: np.random.Generator) -> PairEpoch:
        half = n // 2
        order = rng.permutation(n)
        # floor(u * half) is uniform on 0..half-1 (u * half < half for every double u < 1);
        # the Generator's bounded-integer sampler would map ~0.14 MiB more code into memory.
        shifts = (rng.random(half) * half).astype(np.intp)
        return cls(order, shifts)

    @functools.cached_property
    def addresses(self) -> tuple[int, int, int]:
        """A, B and the shifts, as the sweep loop's pointers."""
        n, half = self.order.size, self.shifts.size
        order = _address(self.order, np.intp, n)
        return order, order + half * self.order.itemsize, _address(self.shifts, np.intp, half)


@dataclass
class Population:
    """Mutable coordinates of one model realization: its slots in ``cash``
    (the credit market's assets, then its liabilities) and their bounds."""

    spec: ModelSpec
    conserved_total: float
    cash: np.ndarray | None = None
    caps: np.ndarray | None = None  # each slot's upper bound (restricted); None: no cap
    net: np.ndarray | None = None  # the credit market's fixed net positions M
    rejected_events: int = 0
    pair_epoch: PairEpoch | None = None  # the matching of the current pair sweeps

    @property
    def n_agents(self) -> int:
        return self.spec.n_agents

    def conserved_value(self) -> float:
        """Compensated re-summation of the model's conserved money function: Σz - Σd
        over the first K slots (the credit market's assets)."""
        return math.fsum(self.cash[:self.spec.n_slots].tolist()) - self.spec.total_overdraft

    def coordinate_scale(self) -> float:
        """Magnitude reference for relative drift when the total is near zero."""
        return max(abs(self.conserved_total), float(self.cash.sum()), 1.0)

    def allows(self, row: int, slots, values) -> np.ndarray:
        """Whether ``slots`` of slot row ``row`` may hold ``values``, as a bool array.

        The bound is the one the data implies, in the float expressions of
        ``moneygas_sweeps``: each slot at or below its cap; for the ledger,
        cash x = M + l - a >= 0 as a <= M + l, with ``values`` in place of the
        assets (row 0) or the liabilities (row 1); otherwise no bound.
        """
        if self.caps is not None:
            return values <= self.caps[slots]
        if self.net is not None and row == 0:
            return values <= self.net[slots] + self.cash[self.n_agents:][slots]
        if self.net is not None:
            return self.cash[slots] <= self.net[slots] + values
        return np.ones(np.shape(values), dtype=bool)

    def check_invariants(self) -> float:
        """Raise ConservationError on a negative slot, a slot past its bound or a
        drifted total; returns the absolute drift of the conserved total."""
        k = self.spec.n_slots
        if self.cash.min() < 0:
            raise ConservationError(f"negative slot: {self.cash.min()}")
        past = np.count_nonzero(~self.allows(0, np.arange(k), self.cash[:k]))
        if past:
            raise ConservationError(f"{past} slots past their bound")
        # Each row of K slots carries the total: the ledger's liabilities as well as its assets.
        drifts = [abs(math.fsum(row.tolist()) - self.spec.total_overdraft - self.conserved_total)
                  for row in self.cash.reshape(-1, k)]
        tolerance = CONSERVATION_RTOL * self.coordinate_scale()
        if max(drifts) > tolerance:
            raise ConservationError(f"conserved total drifted by {max(drifts)} (tolerance {tolerance})")
        return drifts[0]


# ---------------------------------------------------------------------------
# Initial configurations
# ---------------------------------------------------------------------------


def _simplex_sample(rng: np.random.Generator, size: int, total: float) -> np.ndarray:
    """Uniform point on the simplex of ``size`` nonnegative slots summing to total."""
    spacings = rng.standard_exponential(size)
    return spacings * (total / spacings.sum())


def _init_slots(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """K shifted slots summing to total + Σd: all equal, or uniform on their simplex."""
    k, depth = pop.spec.n_slots, pop.spec.total_overdraft
    shifted = pop.conserved_total + depth
    if shifted < 0:
        raise DynamicsError(f"infeasible total {pop.conserved_total}: total + overdrafts {depth} < 0")
    pop.cash = np.full(k, shifted / k) if policy == "equal" else _simplex_sample(rng, k, shifted)


def _init_capped(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """restricted's N cash slots, then N account slots z = y + d capped at d.

    "equal" puts every balance at total/N: cash when it is positive (accounts
    at zero), else the account. "uniform-random" is an exact draw from the
    capped simplex. With S = total + N·d and s = Σz, the account slots' law
    is ∝ (S - s)^(N-1) on [0, d]^N. Proposals z_i iid ∝ e^(-z/T) on [0, d],
    T the model's temperature, are accepted with exp(h(s) - max h), where
    h(s) = (N - 1)·ln(S - s) + s/T; the cash is then uniform on the simplex
    of S - s. The acceptance does not decay with N.
    """
    n, d, total = pop.n_agents, pop.spec.overdraft, pop.conserved_total
    if total <= -n * d:
        raise DynamicsError(f"infeasible total {total}: floor is {-n * d}")
    if policy == "equal":
        per_agent = total / n
        cash, accounts = np.full(n, max(per_agent, 0.0)), np.full(n, d + min(per_agent, 0.0))
    else:
        shifted, t = total + n * d, temperature_closed_form(pop.spec, total)

        def h(s: float) -> float:
            return (n - 1) * math.log(shifted - s) + s / t

        top = h(min(max(shifted - (n - 1) * t, 0.0), n * d))  # h is concave
        for _ in range(_CAPPED_PROPOSALS):
            accounts = -t * np.log1p(rng.random(n) * math.expm1(-d / t))
            s = math.fsum(accounts)
            if s < shifted and rng.random() < math.exp(h(s) - top):
                break
        else:
            raise DynamicsError(f"no capped start for total {total} in {_CAPPED_PROPOSALS} proposals")
        cash = _simplex_sample(rng, n, shifted - s)
    pop.cash = np.concatenate([cash, accounts])
    pop.caps = np.concatenate([np.full(n, np.inf), np.full(n, d)])


def _init_credit(pop: Population, policy: str, rng: np.random.Generator) -> None:
    """The ledger's N asset slots, then N liability slots, each row summing to the
    total credit, and the net positions M = x + a - l of cash x summing to the base.

    "equal" gives every agent x = V/N and a = l = D/N, so the chain samples the
    fibre M_i = V/N, whose assets are exponential only for V >> D. "uniform-random"
    draws x, a and l uniform on their simplices: the whole shell, each fibre
    weighted as it should be, where the assets are exponential at every V.
    """
    n, total, base = pop.n_agents, pop.conserved_total, pop.spec.volume_x
    if total < 0:
        raise DynamicsError(f"infeasible credit total {total}")
    if policy == "equal":
        pop.cash = np.full(2 * n, total / n)
        pop.net = np.full(n, base / n)
    else:
        cash = _simplex_sample(rng, n, base)
        assets, liabilities = _simplex_sample(rng, n, total), _simplex_sample(rng, n, total)
        pop.cash = np.concatenate([assets, liabilities])
        pop.net = cash + assets - liabilities


def init_population(
    spec: ModelSpec, policy: str, total: float, rng: np.random.Generator | None = None,
) -> Population:
    """Build a valid starting configuration carrying the conserved total.

    ``policy`` is "equal" (every agent at the same point) or
    "uniform-random" (a random point of the constraint set). For the
    credit market ``total`` is the total credit; the monetary base comes
    from the model spec.
    """
    if policy not in POLICIES:
        raise DynamicsError(f"unknown init policy {policy!r}")
    if spec.n_agents < 2:
        raise DynamicsError("pair exchange needs at least 2 agents")
    kernel = KERNELS[spec.kind]
    if rng is None:
        rng = np.random.default_rng()
    pop = Population(spec=spec, conserved_total=float(total))
    kernel.init(pop, policy, rng)
    pop.check_invariants()
    return pop


# ---------------------------------------------------------------------------
# The kernel table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Everything the chains and the runner need to know about one model kind."""

    coordinates: Callable[[Population], dict[str, np.ndarray]]  # recorded copies
    marginals: Callable[[ModelSpec], list[tuple[str, list[str], float]]]  # (label, names, floor)
    init: Callable[[Population, str, np.random.Generator], None] = _init_slots
    # One move name per slot row; sweep number p splits the pairs of row p % len(moves).
    moves: tuple[str, ...] = ("pair_reshuffle",)


def _slots_as(name: str) -> Kernel:
    """The slot kernel recording the slots themselves as coordinate ``name``."""
    return Kernel(lambda pop: {name: pop.cash.copy()}, lambda spec: [(name, [name], 0.0)])


def _cash_and_accounts(pop: Population) -> dict[str, np.ndarray]:
    """Cash x, and the account balances y = z - d: the agents' balances, unshifted."""
    n = pop.n_agents
    return {"x": pop.cash[:n].copy(), "y": pop.cash[n:] - pop.spec.overdraft}


def _asset_classes(pop: Population) -> dict[str, np.ndarray]:
    classes = pop.spec.asset_classes
    return {f"y_{c}": pop.cash[c::classes].copy() for c in range(classes)}


KERNELS: dict[ModelKind, Kernel] = {
    ModelKind.CASH_ONLY: _slots_as("x"),
    ModelKind.OVERDRAFT: _slots_as("z"),
    ModelKind.MULTI_ACCOUNT: _slots_as("z"),
    ModelKind.COMBINED: Kernel(
        _cash_and_accounts, lambda spec: [("x", ["x"], 0.0), ("y", ["y"], -spec.overdraft)]),
    ModelKind.RESTRICTED: Kernel(
        _cash_and_accounts, lambda spec: [("x", ["x"], 0.0)], init=_init_capped),
    ModelKind.CREDIT_MARKET: Kernel(
        lambda pop: {"assets": pop.cash[:pop.n_agents].copy()}, lambda spec: [("assets", ["assets"], 0.0)],
        init=_init_credit, moves=("loan_sale", "debt_assumption")),
    ModelKind.MULTI_ASSET: Kernel(
        _asset_classes, lambda spec: [("y_pooled", [f"y_{c}" for c in range(spec.asset_classes)], 0.0)]),
}


# ---------------------------------------------------------------------------
# The compiled library, built on first use
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "cc"
# -ffp-contract=off, and no -ffast-math or -march=native: a fused multiply-add or a
# reordered expression would round the splits differently from numpy's u * s and s - f.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_UNIFORM_BLOCK = 4096  # uniforms (32 KiB) drawn for one call into the loop; more only for one wider sweep


def _compile(source: bytes, output: Path) -> None:
    import subprocess  # only a run that builds the loop needs it

    try:
        subprocess.run([_COMPILER, *_CFLAGS, "-o", str(output), "-x", "c", "-"],
                       input=source, capture_output=True, check=True)
    except OSError as err:
        raise BuildError(f"cannot run the C compiler {_COMPILER!r} to build the compiled library: "
                         f"{err.strerror or err}") from None
    except subprocess.CalledProcessError as err:
        lines = err.stderr.decode(errors="replace").strip().splitlines() or [f"exit code {err.returncode}"]
        raise BuildError(f"{_COMPILER} failed to build {_SOURCE.name}: {lines[-1]}") from None


def _load_library() -> ctypes.CDLL:
    """``_native.c`` compiled into ``$XDG_CACHE_HOME/moneygas`` (or ``~/.cache/moneygas``).

    The file is named by the SHA-256 of the source, the flags and the machine, so
    a built library is reused by every later process and an edited source gets a
    new file. It is written under a unique name and then renamed into place,
    because the replica worker may build it at the same time. Without a writable
    cache it is built into a private directory, removed once the library is loaded.
    """
    # Imported here: imported with this module, ahead of numpy, these two raised
    # a simulate process's peak RSS by 0.2-0.4 MiB.
    import hashlib
    import platform

    source = _SOURCE.read_bytes()
    name = hashlib.sha256(b"\0".join(
        [source, " ".join(_CFLAGS).encode(), platform.machine().encode()])).hexdigest() + ".so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "moneygas"
    library = cache / name
    if not library.is_file():
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, partial = tempfile.mkstemp(prefix=f"{name}.{os.getpid()}.", dir=cache)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="moneygas-") as private:
                _compile(source, Path(private) / name)
                return ctypes.CDLL(str(Path(private) / name))  # the mapping outlives the file
        os.close(fd)
        try:
            _compile(source, Path(partial))
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return ctypes.CDLL(str(library))


@functools.cache
def _native() -> ctypes.CDLL:
    """The compiled library, loaded once per process, with the argument types of
    ``moneygas_sweeps`` and ``moneygas_csv_rows``."""
    library = _load_library()
    s, p = ctypes.c_ssize_t, ctypes.c_void_p  # a size, a pointer
    library.moneygas_sweeps.argtypes = [p, s, s, s, p, p, s, p, p, s, p, p]
    library.moneygas_sweeps.restype = ctypes.c_longlong
    library.moneygas_csv_rows.argtypes = [p, s, p, s, p, p, p, s, p, s, p, p, p, s]
    library.moneygas_csv_rows.restype = s
    return library


def _address(values: np.ndarray | None, dtype: type, size: int) -> int | None:
    """The address of ``values`` for the library, which reads ``size`` contiguous ``dtype``s."""
    if values is None:
        return None
    if values.dtype != dtype or not values.flags.c_contiguous or values.size != size:
        raise ValueError(f"the compiled library needs {size} contiguous {np.dtype(dtype)} values, "
                         f"got {values.size} {values.dtype}")
    return values.ctypes.data


# ---------------------------------------------------------------------------
# Chains and recorded samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMeta:
    burn_in: int
    thin: int
    events_run: int
    rejected_events: int
    max_drift: float


def samples_csv(record_steps, coords: dict[str, np.ndarray], header: bool = True,
                buffer: bytearray | None = None) -> bytes | memoryview:
    """Long-format CSV ``step,agent,coord_name,value``: records, then names, then agents.

    ``coords`` maps each coordinate name to an (n_records, N) array, N per
    name. Values are Python float literals (``repr``), so ``float(value)``
    restores every recorded double exactly. ``header`` False leaves out the
    header line, so the CSV of consecutive record ranges concatenates. With
    ``buffer`` (a bytearray, grown if too small) the result is a memoryview of it.

    The literals come from one ``orjson.dumps`` of all the values, which writes
    repr's shortest round-trip digits (Ryu) about ten times faster. The two
    differ only where repr takes exponent form (0 < |v| < 1e-4, |v| >= 1e16)
    and on non-finite values (orjson's ``null``); those values go through
    repr itself. ``moneygas_csv_rows`` in the compiled library then writes
    each row in one pass: the step, the column's ``,agent,name,`` prefix,
    the literal (repr's, for those values) and a newline.
    """
    import orjson  # here, not at module level: runs that write no CSV never load it

    names = sorted(coords)
    head = b"step,agent,coord_name,value\n" if header else b""
    if not names:
        return head
    encoded = [name.encode() for name in names]
    widths = np.array([coords[name].shape[1] for name in names], dtype=np.intp)
    values = np.ascontiguousarray(
        np.concatenate([coords[name] for name in names], axis=1) if len(names) > 1 else coords[names[0]],
        dtype=np.float64).ravel()
    steps = np.ascontiguousarray(record_steps, dtype=np.int64)
    magnitude = np.abs(values)
    by_repr = np.flatnonzero(((magnitude < 1e-4) & (values != 0)) | ~(magnitude < 1e16))
    alt = [repr(v).encode() for v in values[by_repr].tolist()]
    literals = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)[1:-1]
    name_ends = np.cumsum([0, *map(len, encoded)], dtype=np.intp)
    alt_ends = np.cumsum([0, *map(len, alt)], dtype=np.intp)
    # A row is its step, ",agent,name," and its literal, which is at most its text in the stream or in alt.
    prefix_bytes = sum(w * (len(b"%d" % w) + len(name) + 4) for w, name in zip(widths.tolist(), encoded))
    capacity = (sum(len(b"%d" % step) for step in steps.tolist()) * int(widths.sum())
                + steps.size * prefix_bytes + literals.size + int(alt_ends[-1]))
    size = len(head) + capacity
    if buffer is not None and len(buffer) < size:
        # Grown only when too small, with no temporary of the growth: every old row is
        # written over, so the buffer is cut to one byte and that byte repeated in place.
        buffer[:] = b"\0"
        buffer *= size
    out = np.empty(size, np.uint8) if buffer is None else np.frombuffer(buffer, np.uint8, size)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    used = _native().moneygas_csv_rows(
        out.ctypes.data + len(head), capacity, _address(steps, np.int64, steps.size), steps.size, b"".join(encoded),
        _address(name_ends, np.intp, len(names) + 1), _address(widths, np.intp, len(names)), len(names),
        _address(literals, np.uint8, literals.size), literals.size,
        b"".join(alt), _address(alt_ends, np.intp, len(alt) + 1), _address(by_repr, np.intp, len(alt)), len(alt))
    # Freed before the copy made when no buffer is given, which then reuses their pages.
    del literals, magnitude
    if used < 0:
        raise DynamicsError(f"samples.csv rows overran {capacity} bytes or {values.size} literals")
    return out[:len(head) + used].tobytes() if buffer is None else memoryview(buffer)[:len(head) + used]


@dataclass
class SampleSet:
    """Thinned equilibrium records: one array (n_records, N) per coordinate.
    Record k (from 0) is the state after burn_in + (k+1)·thin events of ``meta``'s window."""

    coords: dict[str, np.ndarray]
    meta: ChainMeta

    @property
    def n_records(self) -> int:
        return next(iter(self.coords.values())).shape[0]

    def pooled(self, names: list[str] | None = None) -> np.ndarray:
        """The picked coordinates' values in one array; a view when one is picked."""
        flat = [self.coords[k].ravel() for k in (self.coords if names is None else names)]
        return flat[0] if len(flat) == 1 else np.concatenate(flat)

    def csv_bytes(self, start: int = 0, stop: int | None = None,
                  buffer: bytearray | None = None) -> bytes | memoryview:
        """``samples_csv`` of records start..stop; the header only when start is 0."""
        burn_in, thin = self.meta.burn_in, self.meta.thin
        return samples_csv([burn_in + (k + 1) * thin for k in range(self.n_records)[start:stop]],
                           {name: v[start:stop] for name, v in self.coords.items()},
                           header=start == 0, buffer=buffer)

    def csv_chunks(self) -> Iterator[memoryview]:
        """``csv_bytes`` over consecutive record ranges of about STREAM_BLOCK
        values, in file order; written out one at a time, the chunks concatenate
        to ``csv_bytes()``. Each is a view of one row buffer, released before the next."""
        block = max(1, STREAM_BLOCK // sum(v.shape[1] for v in self.coords.values()))
        rows = bytearray()
        for start in range(0, max(self.n_records, 1), block):  # no records: the header alone
            with self.csv_bytes(start, start + block, rows) as chunk:
                yield chunk
            rows.append(0)  # resizing raises a BufferError while a view taken from the chunk remains
            rows.pop()


def recording_window(n_agents: int, steps: int, burn_in: int | None, thin: int | None) -> tuple[int, int, int]:
    """(burn_in, thin, records) of a chain of ``steps`` events: burn_in and thin
    default to 100·N and N, and records fire at burn_in + k·thin, k = 1..records.
    Raises DynamicsError unless steps > burn_in >= 0 and thin >= 1."""
    burn_in = 100 * n_agents if burn_in is None else burn_in
    thin = n_agents if thin is None else thin
    if burn_in < 0 or steps <= burn_in:
        raise DynamicsError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if thin < 1:
        raise DynamicsError(f"thin must be >= 1, got {thin}")
    return burn_in, thin, (steps - burn_in) // thin


def recorded_coordinates(pop: Population) -> dict[str, np.ndarray]:
    """Model-relevant marginal coordinates, copied out of the population."""
    return KERNELS[pop.spec.kind].coordinates(pop)


def advance(
    pop: Population, rng: np.random.Generator, n_events: int, phase: int = 0
) -> tuple[int, int]:
    """Apply whole sweeps until at least ``n_events`` events ran.

    Returns (events applied, next phase) so callers can interleave their
    own audits or recording with further calls. Sweep number p splits the
    pairs of slot row p % rows. Each stretch of sweeps within one epoch, up
    to 32 KiB of uniforms, is one call into the compiled loop, after one
    ``rng.random`` draw of its uniforms: the same doubles in the same order
    as one ``rng.random(K // 2)`` per sweep.
    """
    rows, k = len(KERNELS[pop.spec.kind].moves), pop.spec.n_slots
    loop = _native().moneygas_sweeps
    cash = _address(pop.cash, np.float64, rows * k)
    caps, net = _address(pop.caps, np.float64, k), _address(pop.net, np.float64, k)
    uniforms = np.empty(max(k // 2, _UNIFORM_BLOCK))
    drawn = uniforms.ctypes.data
    events = 0
    while events < n_events:
        epoch = pop.pair_epoch
        if epoch is None or epoch.sweep == epoch.shifts.size:
            epoch = pop.pair_epoch = PairEpoch.draw(k, rng)
        half = epoch.shifts.size
        a, b, shifts = epoch.addresses
        sweeps = min(-(-(n_events - events) // half), half - epoch.sweep, uniforms.size // half)
        rng.random(out=uniforms[:sweeps * half])
        first_shift = shifts + epoch.sweep * epoch.shifts.itemsize
        pop.rejected_events += loop(cash, k, rows, phase, a, b, half, first_shift, drawn, sweeps, caps, net)
        epoch.sweep += sweeps
        phase += sweeps
        events += sweeps * half
    return events, phase


def run_chain(
    spec: ModelSpec,
    policy: str,
    total: float,
    steps: int,
    burn_in: int | None = None,
    thin: int | None = None,
    seed: int = 0,
) -> SampleSet:
    """Run an exchange chain and return thinned equilibrium samples.

    Parameters
    ----------
    spec, policy, total : model, init policy and conserved total.
    steps : total number of exchange events.
    burn_in, thin : recording window in events (``recording_window``).
    seed : seeds one PCG64 stream driving init and every event.

    A compensated conservation audit runs every AUDIT_INTERVAL events.

    Records fire at event counts burn_in + k*thin (k >= 1, up to steps)
    and are copied into one (n_records, N) array per coordinate, allocated
    before the first sweep; identical arguments reproduce identical samples
    byte for byte.
    """
    burn_in, thin, n_records = recording_window(spec.n_agents, steps, burn_in, thin)
    rng = np.random.default_rng(seed)
    pop = init_population(spec, policy, total, rng=rng)

    coords = {name: np.empty((n_records, *values.shape)) for name, values in
              recorded_coordinates(pop).items()}
    events = phase = next_record = 0
    next_audit = AUDIT_INTERVAL
    max_drift = 0.0
    scale = pop.coordinate_scale()
    # advance() stops after the first sweep that reaches the next record, audit or
    # end; the last record is due by ``steps``, so every record is taken in the loop.
    while events < steps:
        due = burn_in + (next_record + 1) * thin if next_record < n_records else steps
        done, phase = advance(pop, rng, min(due, next_audit) - events, phase)
        events += done
        while next_record < n_records and burn_in + (next_record + 1) * thin <= events:
            for name, values in recorded_coordinates(pop).items():
                coords[name][next_record] = values
            next_record += 1
        if events >= next_audit:
            max_drift = max(max_drift, pop.check_invariants() / scale)
            next_audit += AUDIT_INTERVAL
    max_drift = max(max_drift, pop.check_invariants() / scale)

    meta = ChainMeta(burn_in=burn_in, thin=thin, events_run=events,
                     rejected_events=pop.rejected_events, max_drift=max_drift)
    return SampleSet(coords=coords, meta=meta)
