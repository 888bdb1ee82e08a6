"""Spatial/temporal noise ensemble: gradient phase accrual and diffusion.

A sample is modeled as a stratified set of positions along z. A field
gradient makes every position precess at its own rate, which is a purely
coherent evolution per member; averaging over members turns it into
engineered decoherence. Molecular diffusion between a gradient pulse and
its inverse makes the echo imperfect, with the order-m coherence decaying
as exp(-D (gamma grad m delta)^2 Delta): the member mean of
`gradient_diffusion_echo` tends to `channels.collective_dephasing`, the
exact channel the storage experiments read.

The time-varying case ("fast switching") scales a unit reflected random
walk by the gradient strength, changing every step_time, so the waveform's
correlation time is of the order of the stepping time -- too fast for the
control sequences to refocus.

The module also holds the package's one propagation engine,
`ensemble_propagators`: every propagator, for one molecule or for the whole
ensemble, is a product of one factor per segment of
`pulses.piecewise_segments`, each an entire function of z. A call resolves,
plans, then evaluates: `_factors` fits each RF piece under a gradient alone
as a Chebyshev series in z, the only exponentials of a piece that fits;
`_chains` plans each row's chain, widest row first, from products alone;
each block of at most BLOCK members multiplies its row's chain out, as
member-last (4, 4, m) arrays with elementwise products. Only the shared
gradient-free exponentials (`ops.expm_hermitian`) use an eigensolver.

All randomness flows through numpy Generators seeded by an explicit seed
argument, and the member sum runs in a fixed order, so outputs are
bit-reproducible.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import operators as ops
from .channels import ensemble_channel
from .errors import NumericalContractError
from .hamiltonians import SpinSystem, internal_hamiltonian
from .pulses import PulseSequence, piecewise_segments
from .units import is_real

DEFAULT_STEP_TIME = 50.6e-6


#: the most members an ensemble may hold
MAX_MEMBERS = 10 ** 6


@dataclass(frozen=True)
class EnsembleSpec:
    """Sample geometry and diffusion constant; n_members from 2 to
    MAX_MEMBERS, a bound on the member count alone."""

    n_members: int = 1001
    sample_length: float = 0.01   # m
    diffusion_d: float = 2.0e-9   # m^2/s

    def __post_init__(self):
        if isinstance(self.n_members, bool) or not isinstance(self.n_members, (int, np.integer)):
            raise ValueError(f"n_members must be an integer, got {self.n_members!r}")
        if not 2 <= self.n_members <= MAX_MEMBERS:
            raise ValueError(f"n_members must be from 2 to {MAX_MEMBERS}, got {self.n_members!r}")
        for name in ("sample_length", "diffusion_d"):
            value = getattr(self, name)
            if not (is_real(value) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class GradientWaveform:
    """Piecewise-constant gradient strength values (T/m) on a uniform clock."""

    step_time: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not 0 < self.step_time < math.inf:
            raise ValueError(f"step_time must be finite and positive, got {self.step_time!r}")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")


def random_walk_waveform(n_steps: int, seed: int, step_time: float = DEFAULT_STEP_TIME) -> GradientWaveform:
    """The unit reflected random walk: the shape of the gradient noise, in
    [-1, 1], to be scaled by a strength in T/m.

    Increments are uniform in +-1 and the walk folds back at +-1 (a triangle
    wave), so the empirical autocorrelation falls below 1/e within a few
    steps: the correlation time is of the order of step_time. Deterministic
    for a fixed seed.
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    folded = np.mod(np.cumsum(default_rng(seed).uniform(-1.0, 1.0, size=n_steps)) + 1.0, 4.0)
    return GradientWaveform(step_time, np.where(folded > 2.0, 3.0 - folded, folded - 1.0))


def member_positions(spec: EnsembleSpec) -> np.ndarray:
    """Stratified midpoint positions over the sample, centered on z = 0: the
    nodes of the midpoint quadrature rule over the sample."""
    n, length = spec.n_members, spec.sample_length
    return (np.arange(n) + 0.5) / n * length - length / 2


#: the most columns of any temporary of the engine: members per block, and
#: points times pieces per Taylor batch of a fit, so that peak memory does
#: not grow with n
BLOCK = 256

#: a run of factors is fitted with fewer Chebyshev terms than this, whatever
#: the member count: each term costs every block a row of the basis
#: product, and each node a product per factor of the run (its RF pieces'
#: exponentials are taken at the fewer nodes of their own fits)
RUN_TERMS = 64

# Taylor coefficients 1/k! of the degree-16 exponential, and the largest
# 1-norm theta at which it is exact to double precision, theta^17/17! = 2^-53
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(17))
_THETA = (2.0 ** -53 * math.factorial(17)) ** (1 / 17)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b member by member, for member-last (4, 4, m) arrays, or
    (4, 4, 1) for a matrix every member shares. Elementwise products only,
    so no BLAS thread joins in."""
    out = a[:, :1] * b[:1]
    for j in (1, 2, 3):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def _expm_members(h: np.ndarray, shifts: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """exp(-i (h + s Jz/2) dt) for each member shift s (rad/s), as a
    member-last (4, 4, m) array. h is (4, 4), or (4, 4, m) per member; dt
    is a number, or (m,) per member.

    Scaling and squaring: the largest member 1-norm of the exponent sets one
    squaring count k for the batch, so that every exponent divided by 2^k
    has 1-norm <= theta. There the degree-16 Taylor polynomial, evaluated by
    Paterson-Stockmeyer (X^2, X^3, X^4, then three Horner steps in X^4), is
    exact to double precision; k squarings undo the scaling. Raises
    NumericalContractError when the exponent needs more than 53 squarings,
    past which no digit of the result would be right.
    """
    m = shifts.size
    x = np.empty((4, 4, m), dtype=complex)
    np.multiply(-1j * dt, h.reshape(4, 4, -1), out=x)
    x[0, 0] -= (1j * dt) * shifts
    x[3, 3] += (1j * dt) * shifts
    norm = float(np.abs(x).sum(axis=0).max())
    if not norm <= _THETA * 2.0 ** 53:
        raise NumericalContractError(f"segment exponent has 1-norm {norm:.3e}, beyond 53 squarings")
    k = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    if k:
        x *= 2.0 ** -k
    x2 = _matmul(x, x)
    x3, x4 = _matmul(x2, x), _matmul(x2, x2)
    p = x4 * _TAYLOR[16]
    for base in (12, 8, 4, 0):
        if base != 12:
            p = _matmul(x4, p)
        for j, xj in enumerate((x, x2, x3), 1):
            p += xj * _TAYLOR[base + j]
        p.reshape(16, m)[::5] += _TAYLOR[base]
    for _ in range(k):
        p = _matmul(p, p)
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
    return np.array([((tail + n * log_rho) / half_axis).max() for n in range(1, RUN_TERMS + 1)])


def _term_count(w: float) -> int:
    """Chebyshev terms N for half-width w by `_half_widths` (1 when w is 0)."""
    return int(np.searchsorted(_half_widths(), w)) + 1 if w else 1


def _group_runs(widths: list) -> list:
    """Split factors of half-widths `widths` into consecutive runs, as
    (start, stop, N): a run grows while its summed w needs N < RUN_TERMS
    Chebyshev terms (N = 1 when it is 0). A factor that alone needs
    RUN_TERMS or more terms is a run of its own with N None, left to the
    block loop."""
    # the largest summed w of a run: without width (no gradient) the table is not built, as all is one run
    w_cap = _half_widths()[-2] if any(widths) else 0.0
    runs: list = []  # [start, stop, summed w, or None for a factor left unfitted]
    for i, w in enumerate(widths):
        if runs and runs[-1][2] is not None and runs[-1][2] + w <= w_cap:
            runs[-1][1:] = i + 1, runs[-1][2] + w
        else:
            runs.append([i, i + 1, None if w > w_cap else w])
    return [(i, j, None if w is None else _term_count(w)) for i, j, w in runs]


def _multiply_out(chain: list, z: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The product of the factors of `chain`, in order, at positions z, as a
    member-last (4, 4, m) array, started from the first factor (the
    identity when `chain` is empty).

    A factor is either (u0, rate, seg) as `_factors` resolves a segment --
    the shared unitary u0 times the member phases exp(-i rate z Jz/2) (none
    when rate is None), or the RF piece seg under a gradient of rate when
    seg is not None, exponentiated here at z alone (`_expm_members`) -- or
    fitted, the (32, N) coefficients of a run or piece, evaluated with the
    first N rows of `basis` (T_k at z). u0 commutes with Jz, so member
    phases act on what is already multiplied out as they are: rows 0 and 3
    turn by their phase and u0's entry, and rows 1-2 take u0's zero-quantum
    block, which no member phase reaches.
    """
    m = z.size
    u = eye = np.broadcast_to(np.eye(4, dtype=complex)[:, :, None], (4, 4, m))
    for f in chain:
        if isinstance(f, np.ndarray):
            re_im = f @ basis[:f.shape[1]]
            g = np.empty((16, m), dtype=complex)
            g.real, g.imag = re_im[:16], re_im[16:]
            g = g.reshape(4, 4, m)
        elif f[2] is not None:
            g = _expm_members(f[2].h[:, :, None], f[1] * z, f[2].duration)
        elif f[1] is not None:
            u0, phase = f[0], np.exp(-1j * f[1] * z)
            g = np.empty((4, 4, m), dtype=complex)
            np.multiply(u[0], u0[0, 0] * phase, out=g[0])
            np.multiply(u[3], u0[3, 3] * phase.conj(), out=g[3])
            g[1:3] = u0[1:3, 1:2] * u[1:2] + u0[1:3, 2:3] * u[2:3]
            u = g
            continue
        else:
            g = f[0]
        u = g if u is eye else _matmul(g, u)
    return u


def _angles(n: int) -> np.ndarray:
    """theta_j = pi (j + 1/2) / n: the n Chebyshev points are cos(theta_j),
    where T_k is cos(k theta_j)."""
    return np.pi / n * (np.arange(n) + 0.5)


def _cos_k(n: int, theta: np.ndarray) -> np.ndarray:
    """(n, m) cos(k theta) for k < n: T_k at the m points cos(theta)."""
    return np.cos(np.multiply.outer(np.arange(n), theta))


def _basis(chain: list, z: np.ndarray, z_max: float) -> np.ndarray:
    """(n, m) T_k(z / z_max) for the k < n that the fitted factors of
    `chain` read, as cos(k arccos(z / z_max)); T_0 alone is 1 whatever z_max
    is."""
    n = max((f.shape[1] for f in chain if isinstance(f, np.ndarray)), default=1)
    return np.ones((1, z.size)) if n == 1 else _cos_k(n, np.arccos(z / z_max))


def _dct(values: np.ndarray) -> np.ndarray:
    """(..., 32, N) real, then imaginary, parts of the coefficients c_k of
    sum_k c_k T_k(x) from its (..., 16, N) values at the N Chebyshev points:
    a DCT-II with T_k at those points."""
    n = values.shape[-1]
    coef = np.concatenate([values.real, values.imag], axis=-2) @ _cos_k(n, _angles(n)).T
    coef *= 2.0 / n
    coef[..., 0] /= 2
    return coef


def _fit_run(run: list, n_terms: int, z_max: float, z_from: float) -> np.ndarray:
    """(32, N) coefficients (`_dct`) in z / z_max of the product of `run`,
    from one `_multiply_out` at the N Chebyshev points of [-z_max, z_max],
    its fitted entries read in z / z_from; a run of one fitted entry read in
    its own scale is that entry. Only an RF piece too wide to fit when the
    factors were resolved takes an exponential here, in `_multiply_out`."""
    if len(run) == 1 and isinstance(run[0], np.ndarray) and z_max == z_from:
        return run[0]
    z = z_max * np.cos(_angles(n_terms))
    return _dct(_multiply_out(run, z, _basis(run, z, z_from)).reshape(16, n_terms))


def _factors(seq: PulseSequence, sys: SpinSystem, waveform, z_max: float) -> tuple[list, list]:
    """The factors of the flattened sequence and their half-widths at
    |z| <= z_max. A segment resolves into (shared unitary or None, rad/s per
    metre of z or None, RF segment or None): a unitary all members share (a
    rotation, or the gradient-free exponential cached by Hamiltonian and
    duration), that unitary times the member phases exp(-i gamma z g dt
    Jz/2) (a segment that commutes with Jz), or an RF piece under a
    gradient, of half-width w = gamma |g| dt z_max. An RF piece whose
    n_p = `_term_count(w)` is below RUN_TERMS becomes its (32, n_p) fit on
    [-z_max, z_max]: a `_dct` of its exponentials at its n_p Chebyshev
    points, taken in one `_expm_members` call per batch of at most
    BLOCK // n_p pieces of equal n_p. A wider piece stays a tuple."""
    shared, factors = {}, []
    for seg in piecewise_segments(seq, sys, waveform):
        if seg.kind == "rotate":
            factors.append((seg.u[:, :, None], None, None))
            continue
        rate = None
        if seg.grad != 0.0 and z_max != 0.0:
            rate = sys.gamma * seg.grad
            if not abs(rate) * z_max * max(seg.duration, 1.0) < math.inf:
                raise NumericalContractError(f"gradient phase rate {rate:.3e} rad/s/m at |z| up to "
                                             f"{z_max:.3e} m is not finite")
            if not seg.commutes:
                factors.append((None, rate, seg))
                continue
            rate *= seg.duration
        key = (seg.h.tobytes(), seg.duration)
        if key not in shared:
            shared[key] = ops.expm_hermitian(seg.h, seg.duration)[:, :, None]
        factors.append((shared[key], rate, None))
    widths = [0.0 if rate is None else abs(rate) * (seg.duration if seg else 1.0) * z_max for _, rate, seg in factors]
    pieces: dict = {}  # n_p: indices of the RF pieces fitted at n_p terms
    for i, w in enumerate(widths):
        if factors[i][2] is not None and (n_p := _term_count(w)) < RUN_TERMS:
            pieces.setdefault(n_p, []).append(i)
    for n_p, indices in pieces.items():
        z = z_max * np.cos(_angles(n_p))
        for start in range(0, len(indices), BLOCK // n_p):
            batch = indices[start:start + BLOCK // n_p]
            _, rates, segs = zip(*(factors[i] for i in batch))
            exps = _expm_members(np.repeat(np.stack([s.h for s in segs], axis=2), n_p, axis=2),
                                 np.multiply.outer(rates, z).ravel(), np.repeat([s.duration for s in segs], n_p))
            for i, fit in zip(batch, _dct(exps.reshape(16, -1, n_p).transpose(1, 0, 2))):
                factors[i] = fit
    return factors, widths


def _chains(source: list, widths: list, row_max: np.ndarray, z_max: float):
    """Yield (r, chain, c_max) for every row r in order of decreasing
    max|z| (NaN rows, which carry no width, last): the row's chain, whose
    fitted entries read z / c_max.

    Each chain is built from a source, at first the factors at z_max: its
    entries are grouped into runs while their summed w at the row's max|z|
    needs N < RUN_TERMS Chebyshev terms for a tail bound below 1e-17
    (`_half_widths`), whatever the member count, and each run is fitted
    from one product at its N points (`_fit_run`). An entry whose own N
    reaches RUN_TERMS enters as it is. A row of equal width reuses the
    chain. The first chain becomes the source, as does any later one of at
    most half the source's length, so refits nest at most 1 + log2(L) deep
    for a widest chain of L entries and round-off does not grow with the
    number of rows; the factors are not held past the first chain.

    Regrouping merges a source's runs but never splits one, so the shipped
    gate's chains at 50, 10 and 5 kHz/cm hold 84, 20 and 10 entries, not the
    83, 19 and 9 of the factors grouped afresh: the price of the cascade, as
    grouping afresh at every row made the shipped noisy_gate 20% slower.
    """
    s_max, c_max = z_max, None
    for r in np.argsort(-row_max, kind="stable"):
        r_max = float(row_max[r])
        if c_max is None or r_max < c_max and any(widths):  # else the chain holds: same width, or none
            scaled = [w * (r_max / s_max) if w else 0.0 for w in widths]
            runs = _group_runs(scaled)
            chain = [_fit_run(source[i:j], n, r_max, s_max) if n else source[i] for i, j, n in runs]
            if c_max is None or 2 * len(chain) <= len(source):
                source, widths, s_max = chain, [sum(scaled[i:j]) for i, j, _ in runs], r_max
            c_max = r_max
        yield r, chain, c_max


def ensemble_propagators(seq: PulseSequence, sys: SpinSystem, waveform,
                         z: float | np.ndarray, reduce=None) -> np.ndarray:
    """Exact propagator of one sequence at every member position at once:
    (4, 4) for a scalar z, (n, 4, 4) for an array, and (P, n, 4, 4) for P
    rows of n positions, such as the points of a sweep that scales one
    waveform (a waveform eps w at z is the waveform w at eps z). Checked
    unitary to 1e-10, block by block. `reduce`, if given, maps each checked
    block's (m, 4, 4) propagators to m reals, and the call returns those in
    the shape of z, so that it never holds more than a block of propagators.

    The factors are resolved once per call, at the widest row's max|z|
    (`_factors`), and each row's chain planned from them (`_chains`); each
    block of at most BLOCK members multiplies its row's chain out in one
    `_multiply_out`, a fitted run being one real product with T_k(z / c_max).
    """
    z = np.asarray(z, dtype=float)
    rows = z.reshape(math.prod(z.shape[:-1]), z.shape[-1] if z.ndim else 1)
    row_max = np.abs(rows).max(axis=1, initial=0.0)  # NaN if any z of the row is
    z_max = float(row_max.max(initial=0.0))
    out = np.empty(rows.shape + (4, 4), dtype=complex) if reduce is None else np.empty(rows.shape)
    for r, chain, c_max in _chains(*_factors(seq, sys, waveform, z_max), row_max, z_max):
        for start in range(0, rows.shape[1], BLOCK):
            zs = rows[r, start:start + BLOCK]
            u = _multiply_out(chain, zs, _basis(chain, zs, c_max))
            err = np.abs(_matmul(u.conj().transpose(1, 0, 2), u) - np.eye(4)[:, :, None]).max()
            if not err <= ops.UNITARY_TOL:
                raise NumericalContractError(f"sequence propagator failed unitarity at 1e-10 (error {err:.3e})")
            out[r, start:start + zs.size] = u.transpose(2, 0, 1) if reduce is None else reduce(u.transpose(2, 0, 1))
    return out.reshape(z.shape + out.shape[2:])


def _check_output_state(rho: np.ndarray) -> None:
    tr = np.trace(rho)
    if not (abs(tr.real - 1.0) <= 1e-10 and abs(tr.imag) <= 1e-10):
        raise NumericalContractError("ensemble state lost trace normalization")
    if not np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-8:
        raise NumericalContractError("ensemble state positivity violated beyond 1e-8")


def diffusion_phase_kicks(grad: float, delta: float, big_delta: float,
                          spec: EnsembleSpec, sys: SpinSystem, seed: int) -> np.ndarray:
    """(n, 4, 4) diagonal unitaries implementing the imperfect-echo phases,
    the residual gamma * grad * delta * dz of each member.

    dz is the Gaussian diffusion displacement accumulated over big_delta,
    std sqrt(2 D big_delta). The uniform member positions cancel exactly
    between a gradient pulse and its inverse; only the displacement survives.
    """
    rng = default_rng(seed)
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
    rho = ensemble_channel(us).apply(rho0)
    _check_output_state(rho)
    return rho
