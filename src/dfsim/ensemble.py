"""Spatial/temporal noise ensemble: gradient phase accrual and diffusion.

A sample is modeled as a stratified set of positions along z. A field
gradient makes every position precess at its own rate, which is a purely
coherent evolution per member; averaging over members turns it into the
engineered decoherence the storage experiments use. Molecular diffusion
between a gradient pulse and its inverse makes the echo imperfect, with the
order-m coherence decaying as exp(-D (gamma grad m delta)^2 Delta).

The time-varying case ("fast switching") uses a reflected bounded random
walk for the gradient strength, changing every step_time, so the waveform's
correlation time is of the order of the stepping time -- too fast for the
control sequences to refocus.

The module also holds the package's one propagation engine,
`ensemble_propagators`: every propagator, for one molecule or for the whole
ensemble, is a product of one unitary per segment that `fuse_segments`
leaves. Member unitaries are held member-last, (4, 4, n), and multiplied
with elementwise products. The product of a run of consecutive segments is
an entire function of z, so each run is multiplied out at Chebyshev points
in z once per call and interpolated; a segment too wide in z for
RUN_TERMS points, or more points than there are members, keeps its member
phases or a batched Taylor exponential. No path needs an eigensolver.

All randomness flows through numpy Generators seeded by an explicit seed
argument, and the member sum runs in a fixed order, so outputs are
bit-reproducible.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NumericalContractError
from .hamiltonians import SpinSystem, internal_hamiltonian
from .pulses import PulseSequence, Segment, piecewise_segments

DEFAULT_STEP_TIME = 50.6e-6


@dataclass(frozen=True)
class EnsembleSpec:
    """Sample geometry and diffusion constant."""

    n_members: int = 1001
    sample_length: float = 0.01   # m
    diffusion_d: float = 2.0e-9   # m^2/s

    def __post_init__(self):
        if not isinstance(self.n_members, (int, np.integer)):
            raise ValueError(f"n_members must be an integer, got {self.n_members!r}")
        if self.n_members < 2:
            raise ValueError("need at least 2 ensemble members")
        for name in ("sample_length", "diffusion_d"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class GradientWaveform:
    """Piecewise-constant gradient strength values (T/m) on a uniform clock."""

    step_time: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.step_time <= 0:
            raise ValueError("step_time must be positive")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_us,grad_T_per_m\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i * self.step_time * 1e6:.12g},{v:.12g}\n")


def _reflect(x: np.ndarray, bound: float) -> np.ndarray:
    """Fold an unbounded walk into [-bound, bound] (triangle-wave map)."""
    if bound == 0.0:
        return np.zeros_like(x)
    y = np.mod(x + bound, 4.0 * bound)
    y = np.where(y > 2.0 * bound, 4.0 * bound - y, y)
    return y - bound


def random_walk_waveform(grad_max: float, n_steps: int, seed: int,
                         step_time: float = DEFAULT_STEP_TIME) -> GradientWaveform:
    """Reflected bounded random walk in [-grad_max, +grad_max] (T/m).

    Increments are uniform in +-grad_max, so the empirical autocorrelation
    falls below 1/e within a few steps: the correlation time is of the order
    of step_time. Deterministic for a fixed seed.
    """
    if not 0 <= grad_max < math.inf:
        raise ValueError(f"grad_max must be finite and >= 0, got {grad_max!r}")
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    rng = np.random.default_rng(seed)
    increments = rng.uniform(-grad_max, grad_max, size=n_steps) if grad_max > 0 else np.zeros(n_steps)
    return GradientWaveform(step_time, _reflect(np.cumsum(increments), grad_max))


def member_positions(spec: EnsembleSpec, jitter: bool = False,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Stratified midpoint positions over the sample, centered on z = 0.

    With jitter=True each member moves uniformly within its stratum (needs an
    rng); the default midpoint rule keeps acceptance runs deterministic.
    """
    n, length = spec.n_members, spec.sample_length
    offsets = np.full(n, 0.5)
    if jitter:
        if rng is None:
            raise ValueError("jitter requires an rng")
        offsets = rng.uniform(0.0, 1.0, size=n)
    return (np.arange(n) + offsets) / n * length - length / 2


def _commutes_with_jz(h: np.ndarray) -> bool:
    """[h, Jz] = 0 to round-off, relative to the size of h (any units)."""
    scale = max(np.abs(h).max(), np.finfo(float).tiny)
    return np.abs(h @ ops.J_Z - ops.J_Z @ h).max() <= 1e-12 * scale


def fuse_segments(segments) -> list[Segment]:
    """Merge each run of consecutive evolve segments under one Hamiltonian
    into a single segment, where that is exact.

    A run under h that commutes with Jz becomes one segment of the summed
    duration whose gradient is the run's mean, so that grad * duration is
    the summed g dt: exp(-i h sum dt) times the member phases of sum g dt is
    the run's product. A run that carries no gradient at all merges under
    any h. Rotations, and evolve segments under a gradient that do not
    commute with Jz (RF pieces), are kept as they are.
    """
    out: list[Segment] = []
    commutes: dict = {}
    run_key = None  # h of the last segment as bytes, None after a rotation
    area = 0.0      # sum of g dt over the last segment
    for seg in segments:
        hkey = seg.h.tobytes() if seg.kind == "evolve" else None
        if hkey is not None and hkey == run_key:
            if hkey not in commutes:
                commutes[hkey] = _commutes_with_jz(seg.h)
            last = out[-1]
            if commutes[hkey] or last.grad == seg.grad == 0.0:
                area += seg.grad * seg.duration
                duration = last.duration + seg.duration
                out[-1] = Segment("evolve", duration, seg.h, area / duration)
                continue
        out.append(seg)
        run_key, area = hkey, seg.grad * seg.duration
    return out


#: members per block of the engine: each block runs the whole segment chain
#: in (4, 4, BLOCK) buffers, so that peak memory does not grow with n
BLOCK = 256

#: a run of factors is fitted with fewer Chebyshev terms than this (and than
#: the member count): each term costs every block a row of the basis
#: product, and each node an exponential or product per factor of the run
RUN_TERMS = 64

# Taylor coefficients 1/k! of the degree-16 exponential, and the largest
# 1-norm theta at which it is exact to double precision, theta^17/17! = 2^-53
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(17))
_THETA = (2.0 ** -53 * math.factorial(17)) ** (1 / 17)


def _views(buffers: np.ndarray, m: int) -> list[np.ndarray]:
    """Contiguous (4, 4, m) member-last views of the rows of `buffers`."""
    return [b[:16 * m].reshape(4, 4, m) for b in buffers]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = a @ b member by member, for member-last (4, 4, m) arrays, or
    (4, 4, 1) for a matrix every member shares. Elementwise products only,
    so no BLAS thread joins in; out and tmp must not overlap a or b."""
    np.multiply(a[:, :1], b[:1], out=out)
    for j in (1, 2, 3):
        np.multiply(a[:, j:j + 1], b[j:j + 1], out=tmp)
        out += tmp
    return out


def _expm_members(h: np.ndarray, shifts: np.ndarray, dt: float | np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """exp(-i (h + s Jz/2) dt) for each member shift s (rad/s), as a
    member-last (4, 4, m) view into `buffers` (at least 7 rows of 16 m),
    valid until they are next written. h is (4, 4), or (4, 4, m) per member
    (it may be that view of the first row of `buffers` itself); dt is a
    number, or (m,) per member.

    Scaling and squaring: the largest member 1-norm of the exponent sets one
    squaring count k for the batch, so that every exponent divided by 2^k
    has 1-norm <= theta. There the degree-16 Taylor polynomial, evaluated by
    Paterson-Stockmeyer (X^2, X^3, X^4, then three Horner steps in X^4), is
    exact to double precision; k squarings undo the scaling. Raises
    NumericalContractError when the exponent needs more than 53 squarings,
    past which no digit of the result would be right.
    """
    m = shifts.size
    x, x2, x3, x4, p, q, t = _views(buffers[:7], m)
    np.multiply(-1j * dt, h.reshape(4, 4, -1), out=x)
    x[0, 0] -= (1j * dt) * shifts
    x[3, 3] += (1j * dt) * shifts
    norm = float(np.abs(x).sum(axis=0).max())
    if not norm <= _THETA * 2.0 ** 53:
        raise NumericalContractError(f"segment exponent has 1-norm {norm:.3e}, beyond 53 squarings")
    k = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    if k:
        x *= 2.0 ** -k
    _matmul(x, x, x2, t)
    _matmul(x2, x, x3, t)
    _matmul(x2, x2, x4, t)
    np.multiply(x4, _TAYLOR[16], out=p)
    for base in (12, 8, 4, 0):
        if base != 12:
            p, q = _matmul(x4, p, q, t), p
        for j, xj in enumerate((x, x2, x3), 1):
            np.multiply(xj, _TAYLOR[base + j], out=t)
            p += t
        p.reshape(16, m)[::5] += _TAYLOR[base]
    for _ in range(k):
        p, q = _matmul(p, p, q, t), p
    return p


@functools.cache
def _half_widths() -> np.ndarray:
    """Entry N - 1: the largest half-width w (rad) at which N terms of the
    Chebyshev series in z are exact to 1e-17. On the Bernstein ellipse rho
    the exponent's Hermitian part has norm at most w (rho - 1/rho)/2, for
    any h, so with M its exponential the tail sum_{k>=N} 2 M rho^-k bounds
    the rest; each rho of the grid gives a valid bound. The norm of a
    product is at most the product of the norms, so the same N holds for a
    run of factors at the sum of their half-widths. Built on first use, once
    per process."""
    rho = 1.0 + np.logspace(-3, 9, 300)
    tail, log_rho, half_axis = math.log(0.5e-17) + np.log1p(-1.0 / rho), np.log(rho), (rho - 1.0 / rho) / 2
    return np.array([((tail + n * log_rho) / half_axis).max() for n in range(1, BLOCK + 1)])


def _phased(u0: np.ndarray, rate: float | None, z: np.ndarray) -> np.ndarray:
    """u0 times the member phases exp(-i rate z Jz/2) at positions z, or u0
    itself when rate is None."""
    return u0 if rate is None else u0 * np.exp(-1j * rate * np.multiply.outer(ops.SPIN_PROJECTION, z))


def _group_runs(factors: list, cap: int) -> list:
    """Split `factors` (each ending in its half-width w) into consecutive
    runs, as (factors, N): a run grows while its summed w needs N < cap
    Chebyshev terms (N = 1 when it is 0). A factor that alone needs cap or
    more terms is a run of its own with N None, left to the block loop."""
    w_cap = max(_half_widths()[cap - 2], 0.0) if cap > 1 else -1.0  # the largest summed w of a run
    runs: list = []  # [factors, summed w, or None for a factor left unfitted]
    for f in factors:
        if f[-1] > w_cap:
            runs.append([[f], None])
        elif runs and runs[-1][1] is not None and runs[-1][1] + f[-1] <= w_cap:
            runs[-1][0].append(f)
            runs[-1][1] += f[-1]
        else:
            runs.append([[f], f[-1]])
    return [(fs, None if w is None else (int(np.searchsorted(_half_widths(), w)) + 1 if w else 1))
            for fs, w in runs]


def _fit_run(factors: list, n_terms: int, z_max: float, buffers: np.ndarray) -> np.ndarray:
    """(32, N) real, then imaginary, parts of the coefficients c_k of the
    run's product sum_k c_k T_k(z / z_max): the run multiplied out at the N
    Chebyshev points z_max cos(pi (j + 1/2)/N), then a DCT-II.

    Rows 7-9 of `buffers` hold the product. The node exponentials of the
    run's RF pieces come from `_expm_members` on rows 0-6, as many pieces at
    once as fill one row, each column with its own h and dt.
    """
    theta = np.pi / n_terms * (np.arange(n_terms) + 0.5)
    nodes = z_max * np.cos(theta)
    acc, spare, tmp = _views(buffers[7:], n_terms)
    acc.fill(0.0)
    acc.reshape(16, -1)[::5] = 1.0
    pieces = [(rate, seg) for _, rate, seg, _ in factors if seg is not None]
    per_batch = buffers.shape[1] // (16 * n_terms)
    done = 0  # RF pieces taken so far
    for u0, rate, seg, _ in factors:
        if seg is None:
            f = _phased(u0, rate, nodes)
        else:
            col = done % per_batch * n_terms
            if col == 0:
                rates, batch = zip(*pieces[done:done + per_batch])
                h = _views(buffers[:1], len(batch) * n_terms)[0]
                for j, piece in enumerate(batch):
                    h[:, :, j * n_terms:(j + 1) * n_terms] = piece.h[:, :, None]
                exps = _expm_members(h, np.multiply.outer(rates, nodes).ravel(),
                                     np.repeat([piece.duration for piece in batch], n_terms), buffers)
            f = exps[:, :, col:col + n_terms]
            done += 1
        acc, spare = _matmul(f, acc, spare, tmp), acc
    coef = np.concatenate([acc.reshape(16, -1).real, acc.reshape(16, -1).imag])
    coef = coef @ np.cos(np.outer(np.arange(n_terms), theta)).T * (2.0 / n_terms)  # T_k(x_j)
    coef[:, 0] /= 2
    return coef


def ensemble_propagators(seq: PulseSequence, sys: SpinSystem, waveform,
                         z: float | np.ndarray) -> np.ndarray:
    """Exact propagator of one sequence at every member position at once:
    (4, 4) for a scalar z, (n, 4, 4) for an array, checked unitary to 1e-10.

    Each fused segment is resolved once per call into a factor: a unitary
    all members share (a rotation, or an exponential of the gradient-free
    Hamiltonian cached by Hamiltonian and duration, for a segment with no
    gradient or with z = 0 everywhere), that unitary times the member phases
    exp(-i gamma z g dt Jz/2) (a segment that commutes with Jz), or an RF
    piece under a gradient. Each is an entire function of z of half-width
    w = gamma |g| max|z| dt (0 for a shared unitary). Consecutive factors
    form runs while their summed w needs N < min(n, BLOCK, RUN_TERMS)
    Chebyshev terms for a tail bound below 1e-17 (`_half_widths`); each run
    is multiplied out at its N Chebyshev points once per call (`_fit_run`).
    A factor whose own N reaches that cap stays as it is: member phases, or
    the per-member Taylor exponential `_expm_members`, so one molecule and
    tiny ensembles take no Chebyshev path. Blocks of at most BLOCK members,
    in buffers allocated once per call, then evaluate each run as one real
    product with the basis T_k(z / max|z|), built once per call, and each
    remaining factor per member, and multiply them out.
    """
    z = np.asarray(z, dtype=float)
    zs = z.reshape(-1)
    z_max = float(np.abs(zs).max(initial=0.0))  # NaN if any z is
    buffers = np.empty((10, 16 * min(zs.size, BLOCK)), dtype=complex)
    shared: dict = {}
    commutes: dict = {}
    # (shared unitary or None, rad/s per metre of z or None, RF segment or None, half-width w)
    factors = []
    for seg in fuse_segments(piecewise_segments(seq, sys, waveform)):
        if seg.kind == "rotate":
            factors.append((seg.u[:, :, None], None, None, 0.0))
            continue
        hkey = seg.h.tobytes()
        rate = None
        if seg.grad != 0.0 and z_max != 0.0:
            rate = sys.gamma * seg.grad
            if not abs(rate) * z_max * max(seg.duration, 1.0) < math.inf:
                raise NumericalContractError(f"gradient phase rate {rate:.3e} rad/s/m at |z| up to "
                                             f"{z_max:.3e} m is not finite")
            if hkey not in commutes:
                commutes[hkey] = _commutes_with_jz(seg.h)
            if not commutes[hkey]:
                factors.append((None, rate, seg, abs(rate) * z_max * seg.duration))
                continue
            rate *= seg.duration
        u0 = shared.get((hkey, seg.duration))
        if u0 is None:
            u0 = shared[hkey, seg.duration] = ops.expm_hermitian(seg.h, seg.duration)[:, :, None]
        factors.append((u0, rate, None, 0.0 if rate is None else abs(rate) * z_max))

    # per run: its one factor left unfitted, less w, or (None, None, its Chebyshev coefficients)
    runs = [(None, None, _fit_run(fs, n_terms, z_max, buffers)) if n_terms else fs[0][:3]
            for fs, n_terms in _group_runs(factors, min(zs.size, BLOCK, RUN_TERMS))]
    n_basis = max((piece.shape[1] for u0, rate, piece in runs if u0 is None and rate is None), default=0)
    basis = np.empty((n_basis, zs.size))  # T_k(z / z_max) by the three-term recurrence
    basis[:1] = 1.0
    if n_basis > 1:
        basis[1] = zs / z_max
        for k in range(2, n_basis):
            np.subtract(2.0 * basis[1] * basis[k - 1], basis[k - 2], out=basis[k])
    out = np.empty((zs.size, 4, 4), dtype=complex)
    for start in range(0, zs.size, BLOCK):
        zb = zs[start:start + BLOCK]
        m = zb.size
        u, spare, tmp = _views(buffers[7:], m)
        u.fill(0.0)
        u.reshape(16, -1)[::5] = 1.0
        for u0, rate, piece in runs:
            if piece is None:
                useg = _phased(u0, rate, zb)
            elif rate is None:
                re_im = np.matmul(piece, basis[:piece.shape[1], start:start + m],
                                  out=buffers[1].view(float)[:32 * m].reshape(32, m))
                useg = buffers[0][:16 * m].reshape(16, m)
                useg.real, useg.imag = re_im[:16], re_im[16:]
                useg = useg.reshape(4, 4, m)
            else:
                useg = _expm_members(piece.h, rate * zb, piece.duration, buffers)
            u, spare = _matmul(useg, u, spare, tmp), u
        out[start:start + m] = u.transpose(2, 0, 1)
        # u^dagger u - 1, in buffers the exponential no longer needs
        u_dag, gram = _views(buffers[:2], m)
        np.conjugate(u.transpose(1, 0, 2), out=u_dag)
        _matmul(u_dag, u, gram, tmp).reshape(16, -1)[::5] -= 1.0
        err = np.abs(gram).max()
        if not err <= ops.UNITARY_TOL:
            raise NumericalContractError(f"sequence propagator failed unitarity at 1e-10 (error {err:.3e})")
    return out.reshape(z.shape + (4, 4))


def _average_conjugation(us: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    return np.einsum("nij,jk,nlk->il", us, np.asarray(rho0, dtype=complex), us.conj()) / len(us)


def _check_output_state(rho: np.ndarray) -> None:
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise NumericalContractError("ensemble state lost trace normalization")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-8:
        raise NumericalContractError("ensemble state positivity violated beyond 1e-8")


def evolve_ensemble(seq: PulseSequence, waveform, spec: EnsembleSpec,
                    sys: SpinSystem, rho0: np.ndarray) -> np.ndarray:
    """Ensemble-averaged final state: mean over member positions of the
    coherent evolution, i.e. the trace over the spatial degree of freedom."""
    zs = member_positions(spec)
    us = ensemble_propagators(seq, sys, waveform, zs)
    rho = _average_conjugation(us, rho0)
    _check_output_state(rho)
    return rho


def diffusion_phase_kicks(grad: float, delta: float, big_delta: float,
                          spec: EnsembleSpec, sys: SpinSystem, seed: int) -> np.ndarray:
    """(n, 4, 4) diagonal unitaries implementing the imperfect-echo phases,
    the residual gamma * grad * delta * dz of each member.

    dz is the Gaussian diffusion displacement accumulated over big_delta,
    std sqrt(2 D big_delta). The uniform member positions cancel exactly
    between a gradient pulse and its inverse; only the displacement survives.
    """
    rng = np.random.default_rng(seed)
    dz = rng.normal(0.0, math.sqrt(2.0 * spec.diffusion_d * big_delta), size=spec.n_members)
    phi = sys.gamma * grad * delta * dz
    out = np.zeros((len(phi), 4, 4), dtype=complex)
    out[:, np.arange(4), np.arange(4)] = np.exp(1j * np.outer(phi, ops.SPIN_PROJECTION))
    return out


def gradient_diffusion_echo(grad: float, delta: float, big_delta: float,
                            spec: EnsembleSpec, sys: SpinSystem,
                            rho0: np.ndarray, seed: int) -> np.ndarray:
    """Gradient pulse, diffusion delay, inverse gradient: the ensemble state
    after the imperfect echo, including coherent internal evolution over the
    full duration 2 delta + big_delta.

    The gradient Hamiltonian commutes with the internal one, so the member
    unitaries factor exactly into the shared internal propagator times the
    member's residual phase kick.
    """
    u_int = ops.expm_hermitian(internal_hamiltonian(sys), 2 * delta + big_delta)
    kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, sys, seed)
    us = u_int[None, :, :] @ kicks
    rho = _average_conjugation(us, rho0)
    _check_output_state(rho)
    return rho
