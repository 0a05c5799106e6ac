"""Dense quantum linear algebra on small registers, plus the BB84 product form.

Conventions used by the whole package:

- Qubit 0 is the leftmost / most significant position: the basis state
  |b0 b1 ... b_{q-1}> has index sum(b_i * 2**(q-1-i)).
- Amplitudes and matrix entries are numpy complex128; every tolerance in
  this package assumes double precision.
- Registers are capped at 20 qubits (dense representation only).
- Every Kronecker product in the package is :func:`kron`, an outer product
  and a reshape: numpy's products, bit for bit, without its axis bookkeeping.
- All values are immutable after construction and safe to share across
  threads; operations are pure functions.
- States are validated at the boundary, where a caller or a file supplies
  them; steps whose result is valid by construction build it `_unchecked`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_QUBITS = 20

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-8
FLAG_ATOL = 1e-10

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors, or of matrices, folded from the left.

    The same products as folding numpy's; one factor is returned as given.
    """
    if not factors or factors[0].ndim not in (1, 2) or any(f.ndim != factors[0].ndim for f in factors):
        raise ValueError("kron needs one or more factors, all vectors or all matrices")
    out = factors[0]
    for f in factors[1:]:
        shape = [i * j for i, j in zip(out.shape, f.shape)]
        outer = np.multiply.outer(out, f)
        out = (outer if f.ndim == 1 else outer.transpose(0, 2, 1, 3)).reshape(shape)
    return out


def _frozen_array(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape_check is not None and arr.shape != shape_check:
        raise ValueError(f"expected shape {shape_check}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _qubit_count_for(dim: int) -> int:
    q = int(dim).bit_length() - 1
    if dim <= 0 or 2**q != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if q > MAX_QUBITS:
        raise ValueError(f"register of {q} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return q


def bits_to_index(bits: Sequence[int]) -> int:
    """Map a bit tuple (qubit 0 first, most significant) to a basis index."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b}")
        value = (value << 1) | b
    return value


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    """Inverse of :func:`bits_to_index` for a register of `width` qubits."""
    if not 0 <= index < 2**width:
        raise ValueError(f"index {index} out of range for {width} bits")
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on `qubit_count` qubits."""

    amplitudes: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a 1-D vector")
        q = _qubit_count_for(arr.shape[0])
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"statevector norm {norm} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "qubit_count", q)

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray) -> "StateVector":
        """Internal factory for steps that keep the norm at 1 by construction."""
        obj = object.__new__(cls)
        arr = np.asarray(amplitudes, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(obj, "amplitudes", arr)
        object.__setattr__(obj, "qubit_count", _qubit_count_for(arr.shape[0]))
        return obj

    @classmethod
    def basis_state(cls, bits: Sequence[int] | int, qubit_count: int | None = None) -> "StateVector":
        if isinstance(bits, int):
            if qubit_count is None:
                raise ValueError("qubit_count required when passing an integer index")
            index, q = bits, qubit_count
        else:
            bits = tuple(bits)
            q = len(bits) if qubit_count is None else qubit_count
            index = bits_to_index(bits)
        amps = np.zeros(2**q, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def to_state(self) -> "StateVector":
        """The dense register, as for a `BB84Product`: a state vector is its own."""
        return self

    def to_density(self, weight: float = 1.0) -> "DensityMatrix":
        psi = self.amplitudes
        return DensityMatrix._unchecked(weight * np.outer(psi, psi.conj()), weight=weight)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def inner(self, other: "StateVector") -> complex:
        if self.qubit_count != other.qubit_count:
            raise ValueError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class BB84Product:
    """Product of BB84 qubits: qubit i is H^bases_i |bits_i>.

    Indexing and iteration yield the single qubits as StateVectors; the
    dense register is built only by `to_state` and `to_density`.
    """

    bits: tuple[int, ...]
    bases: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != len(self.bases):
            raise ValueError("bit and basis vectors must have equal length")
        if any(b not in (0, 1) for b in self.bits + self.bases):
            raise ValueError("bits and bases must be bit vectors")

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i):
        """Qubit i as a StateVector; a slice is again a product, as for a tuple."""
        if isinstance(i, slice):
            return BB84Product(self.bits[i], self.bases[i])
        return BB84Product((self.bits[i],), (self.bases[i],)).to_state()

    def to_state(self) -> StateVector:
        """Kronecker product of one column of H or I per qubit; the qubit cap is checked first."""
        _qubit_count_for(1 << len(self.bits))
        columns = ((_H if basis else _I2)[:, bit] for bit, basis in zip(self.bits, self.bases))
        return StateVector._unchecked(kron(np.ones(1, dtype=complex), *columns))

    def to_density(self) -> "DensityMatrix":
        return self.to_state().to_density()

    def measure(self, bases: Sequence[int], u: float | None = None) -> tuple[int, ...]:
        """Outcome of measuring qubit i in basis bases[i], given a uniform u in [0, 1).

        A qubit measured in its own basis gives its bit.  The other k qubits
        read the k binary digits of floor(u * 2^k), most significant first:
        the index ``rng.choice`` draws over the product law from
        u = rng.random(), so seeded callers match the dense path.  u is
        needed only when k > 0.
        """
        bases = tuple(bases)
        if len(bases) != len(self.bits):
            raise ValueError(f"{len(self.bits)}-qubit product does not match {len(bases)} measurement bases")
        uniform = [i for i, (own, basis) in enumerate(zip(self.bases, bases)) if own != basis]
        if not uniform:
            return self.bits
        if u is None:
            raise ValueError("non-deterministic measurement requires a uniform draw")
        out = list(self.bits)
        for pos, i in enumerate(uniform):
            out[i] = int(u * 2 ** (pos + 1)) & 1  # digit pos + 1 of u, exact in binary
        return tuple(out)


@dataclass(frozen=True)
class DensityMatrix:
    """Possibly subnormalized mixed state; `weight` is the trace."""

    entries: np.ndarray
    weight: float = 1.0
    qubit_count: int = field(init=False)

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        q = _qubit_count_for(arr.shape[0])
        if not 0.0 <= self.weight <= 1.0 + NORM_ATOL:
            raise ValueError(f"weight {self.weight} outside [0, 1]")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITIAN_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        eigmin = float(np.linalg.eigvalsh(arr)[0]) if arr.shape[0] > 1 else float(arr[0, 0].real)
        if eigmin < -PSD_ATOL:
            raise ValueError(f"matrix has negative eigenvalue {eigmin}")
        tr = float(np.trace(arr).real)
        if abs(tr - self.weight) > NORM_ATOL * max(1.0, arr.shape[0]):
            raise ValueError(f"trace {tr} does not match declared weight {self.weight}")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "qubit_count", q)

    @classmethod
    def maximally_mixed(cls, qubit_count: int) -> "DensityMatrix":
        dim = 2**qubit_count
        return cls(np.eye(dim, dtype=complex) / dim, weight=1.0)

    @classmethod
    def _unchecked(cls, entries: np.ndarray, weight: float) -> "DensityMatrix":
        """Internal factory for operations that preserve validity by
        construction (unitary conjugation, projection, partial trace)."""
        obj = object.__new__(cls)
        arr = np.asarray(entries, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(obj, "entries", arr)
        object.__setattr__(obj, "weight", weight)
        object.__setattr__(obj, "qubit_count", _qubit_count_for(arr.shape[0]))
        return obj

    def normalized(self) -> "DensityMatrix":
        if self.weight <= 0:
            raise ValueError("cannot normalize a zero-weight state")
        return DensityMatrix._unchecked(self.entries / self.weight, weight=1.0)


@dataclass(frozen=True)
class LinearOperator:
    """Complex matrix with optional verified structure flags."""

    entries: np.ndarray
    unitary: bool = False
    isometry: bool = False
    projector: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2:
            raise ValueError("operator entries must be a matrix")
        if self.unitary:
            if arr.shape[0] != arr.shape[1]:
                raise ValueError("unitary flag requires a square matrix")
            gap = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[1])))
            if gap > FLAG_ATOL:
                raise ValueError(f"unitary flag violated by {gap}")
        if self.isometry:
            gap = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[1])))
            if gap > FLAG_ATOL:
                raise ValueError(f"isometry flag violated by {gap}")
        if self.projector:
            if arr.shape[0] != arr.shape[1]:
                raise ValueError("projector flag requires a square matrix")
            gap = np.max(np.abs(arr @ arr - arr))
            if gap > FLAG_ATOL:
                raise ValueError(f"projector flag violated by {gap}")
        object.__setattr__(self, "entries", arr)


# validated once and shared: a LinearOperator is frozen, with read-only entries
_HADAMARD = LinearOperator(_H, unitary=True)
_PAULI_X = LinearOperator(_X, unitary=True)
_PAULI_Z = LinearOperator(_Z, unitary=True)


def hadamard() -> LinearOperator:
    return _HADAMARD


def pauli_x() -> LinearOperator:
    return _PAULI_X


def pauli_z() -> LinearOperator:
    return _PAULI_Z


def tensor_product(a, b):
    """Kronecker product of two values of the same kind; qubit counts add."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix._unchecked(kron(a.entries, b.entries), weight=a.weight * b.weight)
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(
            kron(a.entries, b.entries),
            unitary=a.unitary and b.unitary,
            isometry=a.isometry and b.isometry,
            projector=a.projector and b.projector,
        )
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _check_targets(targets: Sequence[int], q: int, op_dim: int) -> tuple[int, ...]:
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("target qubits must be distinct")
    for t in targets:
        if not 0 <= t < q:
            raise ValueError(f"target qubit {t} out of range for {q}-qubit register")
    if op_dim != 2 ** len(targets):
        raise ValueError(f"operator dimension {op_dim} does not match {len(targets)} target qubits")
    return targets


def _apply_matrix_to_vector(matrix: np.ndarray, amps: np.ndarray, targets: tuple[int, ...], q: int) -> np.ndarray:
    k = len(targets)
    moved = np.moveaxis(amps.reshape([2] * q), targets, range(k))
    flat = moved.reshape(2**k, -1)
    out = (matrix @ flat).reshape([2] * q)
    return np.moveaxis(out, range(k), targets).reshape(-1)


def _apply_matrix_to_density(matrix: np.ndarray, rho: np.ndarray, targets: tuple[int, ...], q: int) -> np.ndarray:
    """O rho O^dagger on the target qubits without embedding O densely."""
    k = len(targets)
    dim = 2**q
    # each reshape below copies; binding every copy to `tensor` before the
    # next product frees the previous temporary, so at most three
    # density-sized arrays (rho included) are alive at once
    tensor = np.moveaxis(rho.reshape([2] * (2 * q)), targets, range(k)).reshape(2**k, -1)
    tensor = np.moveaxis((matrix @ tensor).reshape([2] * (2 * q)), range(k), targets)
    col_targets = tuple(q + t for t in targets)
    tensor = np.moveaxis(tensor, col_targets, range(k)).reshape(2**k, -1)
    tensor = (matrix.conj() @ tensor).reshape([2] * (2 * q))
    return np.moveaxis(tensor, range(k), col_targets).reshape(dim, dim)


def apply_operator(op: LinearOperator, state, targets: Sequence[int]):
    """Apply `op` on `targets`; density matrices map rho -> O rho O^dagger."""
    if isinstance(state, StateVector):
        targets = _check_targets(targets, state.qubit_count, op.entries.shape[0])
        out = _apply_matrix_to_vector(op.entries, state.amplitudes, targets, state.qubit_count)
        return (StateVector._unchecked if op.unitary else StateVector)(out)
    if isinstance(state, DensityMatrix):
        q = state.qubit_count
        targets = _check_targets(targets, q, op.entries.shape[0])
        out = _apply_matrix_to_density(op.entries, state.entries, targets, q)
        factory = DensityMatrix._unchecked if op.unitary else DensityMatrix
        return factory(out, weight=state.weight)
    raise TypeError(f"cannot apply operator to {type(state).__name__}")


def hadamard_layer(state, mask: Sequence[int]):
    """Apply H exactly on the qubits whose mask bit is 1."""
    mask = tuple(mask)
    if len(mask) != state.qubit_count:
        raise ValueError(f"mask length {len(mask)} does not match {state.qubit_count} qubits")
    if any(bit not in (0, 1) for bit in mask):
        raise ValueError("mask entries must be bits")
    out = state
    h = hadamard()
    for i, bit in enumerate(mask):
        if bit:
            out = apply_operator(h, out, [i])
    return out


def pauli_string(a: Sequence[int], b: Sequence[int]) -> LinearOperator:
    """Tensor product over qubits of sigma_X^a_i sigma_Z^b_i."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("bit vectors a and b must have equal length")
    if not a:
        raise ValueError("empty Pauli string")
    factors = []
    for ai, bi in zip(a, b):
        if ai not in (0, 1) or bi not in (0, 1):
            raise ValueError("a and b must be bit vectors")
        m = _I2
        if ai:
            m = _X @ m
        if bi:
            m = m @ _Z
        factors.append(m)
    return LinearOperator(kron(*factors), unitary=True)


def _project_vector(amps: np.ndarray, targets: tuple[int, ...], outcome: tuple[int, ...], q: int) -> np.ndarray:
    tensor = amps.reshape([2] * q)
    sel: list = [slice(None)] * q
    for t, bit in zip(targets, outcome):
        sel[t] = bit
    out = np.zeros_like(tensor)
    out[tuple(sel)] = tensor[tuple(sel)]
    return out.reshape(-1)


def project_computational(state, targets: Sequence[int], outcome: Sequence[int]):
    """Project onto a computational outcome and renormalize.

    Raises ValueError when the requested branch has (numerically) zero norm.
    """
    outcome = tuple(outcome)
    targets = _check_targets(targets, state.qubit_count, 2 ** len(outcome))
    if isinstance(state, StateVector):
        vec = _project_vector(state.amplitudes, targets, outcome, state.qubit_count)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ValueError(f"zero-norm branch {outcome} requested")
        return StateVector._unchecked(vec / norm)
    if isinstance(state, DensityMatrix):
        q = state.qubit_count
        proj_small = np.zeros((2 ** len(targets), 2 ** len(targets)), dtype=complex)
        proj_small[bits_to_index(outcome), bits_to_index(outcome)] = 1.0
        sub = _apply_matrix_to_density(proj_small, state.entries, targets, q)
        tr = float(np.trace(sub).real)
        if tr < 1e-12:
            raise ValueError(f"zero-norm branch {outcome} requested")
        return DensityMatrix._unchecked(sub / tr, weight=1.0)
    raise TypeError(f"cannot project {type(state).__name__}")


def _outcome_marginal(state, targets: tuple[int, ...]) -> np.ndarray:
    """Born probabilities of all computational outcomes on `targets`."""
    q = state.qubit_count
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
    elif isinstance(state, DensityMatrix):
        probs = np.real(np.diag(state.entries))
    else:
        raise TypeError(f"cannot measure {type(state).__name__}")
    tensor = probs.reshape([2] * q)
    other = tuple(i for i in range(q) if i not in targets)
    marg = tensor.sum(axis=other) if other else tensor
    # axes of marg follow sorted target order; permute into requested order
    k = len(targets)
    if k > 1:
        sorted_targets = sorted(targets)
        perm = [sorted_targets.index(t) for t in targets]
        marg = np.transpose(marg, perm)
    return np.asarray(marg).reshape(-1)


def born_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """The one Born draw: an index with probability proportional to `probs`, dust clipped."""
    probs = np.clip(probs, 0.0, None)
    return int(rng.choice(probs.shape[0], p=probs / probs.sum()))


def enumerate_measurement(state, targets: Sequence[int]):
    """All computational outcomes on `targets` with exact probabilities.

    Returns a list of (outcome bits, probability, renormalized post-state),
    skipping branches of zero probability.  Probabilities sum to 1 (or the
    state weight for subnormalized density matrices).
    """
    targets = _check_targets(targets, state.qubit_count, 2 ** len(tuple(targets)))
    marg = _outcome_marginal(state, targets)
    results = []
    for index in range(marg.shape[0]):
        p = float(marg[index])
        if p <= 1e-14:
            continue
        outcome = index_to_bits(index, len(targets))
        results.append((outcome, p, project_computational(state, targets, outcome)))
    return results


def measure_computational(state, targets: Sequence[int], rng: np.random.Generator):
    """Sample a computational-basis measurement with Born probabilities.

    Only the sampled branch's post-state is constructed.
    """
    targets = _check_targets(targets, state.qubit_count, 2 ** len(tuple(targets)))
    index = born_index(_outcome_marginal(state, targets), rng)
    outcome = index_to_bits(index, len(targets))
    return outcome, project_computational(state, targets, outcome)


def sample_outcome(state, targets: Sequence[int], rng: np.random.Generator | None = None):
    """Measurement outcome without the post-state.

    Deterministic outcomes need no rng; anything else does.
    """
    targets = _check_targets(targets, state.qubit_count, 2 ** len(tuple(targets)))
    marg = _outcome_marginal(state, targets)
    support = np.flatnonzero(marg > 1e-12)
    if support.shape[0] == 1:
        return index_to_bits(int(support[0]), len(targets))
    if rng is None:
        raise ValueError("non-deterministic measurement requires an rng")
    return index_to_bits(born_index(marg, rng), len(targets))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the kept qubits (in the listed order); trace preserved."""
    keep = tuple(keep)
    q = rho.qubit_count
    if len(set(keep)) != len(keep) or any(not 0 <= k < q for k in keep):
        raise ValueError(f"invalid kept indices {keep} for {q} qubits")
    traced = tuple(i for i in range(q) if i not in keep)
    tensor = rho.entries.reshape([2] * (2 * q))
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:q])
    col = list(letters[q : 2 * q])
    for t in traced:
        col[t] = row[t]
    out_spec = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_spec, tensor)
    dim = 2 ** len(keep)
    return DensityMatrix._unchecked(reduced.reshape(dim, dim), weight=rho.weight)


def trace_norm(delta: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(delta, compute_uv=False)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("dimension mismatch")
    return 0.5 * trace_norm(a.entries - b.entries)


def fidelity(a, b) -> float:
    """Uhlmann fidelity, squared convention: F(|x>,|y>) = |<x|y>|^2."""
    a, b = (x.to_state() if isinstance(x, BB84Product) else x for x in (a, b))
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return abs(a.inner(b)) ** 2
    a_rho = a.to_density() if isinstance(a, StateVector) else a
    b_rho = b.to_density() if isinstance(b, StateVector) else b
    if a_rho.qubit_count != b_rho.qubit_count:
        raise ValueError("dimension mismatch")
    evals, evecs = np.linalg.eigh(a_rho.entries)
    evals = np.clip(evals, 0.0, None)
    sqrt_a = (evecs * np.sqrt(evals)) @ evecs.conj().T
    inner = sqrt_a @ b_rho.entries @ sqrt_a
    inner_evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(inner_evals)) ** 2)
