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
ensemble, is a product of one unitary per segment of
`pulses.piecewise_segments`, which fuses runs as it flattens. Member
unitaries are held member-last, (4, 4, m), and multiplied with elementwise
products; each helper takes and returns plain arrays of at most BLOCK
columns. The product of a run of consecutive segments is an entire
function of z, so each run is multiplied out at Chebyshev points in z and
interpolated. Positions may come in rows, as a sweep that scales one
waveform does (eps w at z is w at eps z), and one builder makes every
row's chain, widest row first: it groups a source chain's entries into
runs and fits each. The widest row's source is the segments, whose RF
pieces are fitted alone first (a run of one is its fit), at the fewer
points their own width in z needs, so the long delays that set a run's
point count cost a product there, not an exponential; each narrower row
refits a wider row's chain from products alone. A segment too wide in z
for RUN_TERMS points, whatever the member count, keeps its member phases,
applied as phases, or its own Taylor exponential. One routine,
`_multiply_out`, multiplies a chain of such factors out at any positions.
No path needs an eigensolver.

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

    A factor is either (u0, rate, seg) as `ensemble_propagators` resolves a
    segment -- the shared unitary u0 times the member phases
    exp(-i rate z Jz/2) (none when rate is None), or the RF piece seg under
    a gradient of rate when seg is not None, exponentiated here at z alone
    (`_expm_members`) -- or fitted, the (32, N) coefficients of a run or
    piece, evaluated with the first N rows of `basis` (T_k at z). u0
    commutes with Jz, so member phases act on what is already multiplied
    out as they are: rows 0 and 3 turn by their phase and u0's entry, and
    rows 1-2 take u0's zero-quantum block, which no member phase reaches.
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
    its fitted entries read in z / z_from; no exponential is taken there
    unless an entry is an RF piece that no fit holds.

    Where no entry is fitted yet, each RF piece is fitted alone first, with
    the n_p terms of the run's widest piece: its exponentials at those n_p
    points, one `_expm_members` call per batch of BLOCK // n_p pieces (each
    column with its own h and dt, one batch in memory at a time), and a
    DCT-II. They meet the same 1e-17 tail bound on [-z_max, z_max] as the
    run's N, which the summed half-width of the run's delays sets, so n_p is
    often far smaller. A run of one RF piece is its fit.
    """
    if not any(isinstance(f, np.ndarray) for f in run):
        pieces = [f for f in run if f[2] is not None]
        n_p = _term_count(max((abs(rate) * seg.duration * z_max for _, rate, seg in pieces), default=0.0))
        z, per_batch, fits = z_max * np.cos(_angles(n_p)), BLOCK // n_p, []
        for start in range(0, len(pieces), per_batch):
            _, rates, segs = zip(*pieces[start:start + per_batch])
            exps = _expm_members(np.repeat(np.stack([s.h for s in segs], axis=2), n_p, axis=2),
                                 np.multiply.outer(rates, z).ravel(), np.repeat([s.duration for s in segs], n_p))
            fits.extend(_dct(exps.reshape(16, -1, n_p).transpose(1, 0, 2)))
        if len(run) == 1 and pieces:  # n_p is then N
            return fits[0]
        run, z_from = [fits.pop(0) if f[2] is not None else f for f in run], z_max
    z = z_max * np.cos(_angles(n_terms))
    return _dct(_multiply_out(run, z, _basis(run, z, z_from)).reshape(16, n_terms))


def ensemble_propagators(seq: PulseSequence, sys: SpinSystem, waveform,
                         z: float | np.ndarray, reduce=None) -> np.ndarray:
    """Exact propagator of one sequence at every member position at once:
    (4, 4) for a scalar z, (n, 4, 4) for an array, and (P, n, 4, 4) for P
    rows of n positions, such as the points of a sweep that scales one
    waveform (a waveform eps w at z is the waveform w at eps z). Checked
    unitary to 1e-10, block by block. `reduce`, if given, maps each checked
    block's (m, 4, 4) propagators to m reals, and the call returns those in
    the shape of z, so that it never holds more than a block of propagators.

    The sequence is flattened once per call, and each segment resolved into
    a factor: a unitary all members share (a rotation, or an exponential of
    the gradient-free Hamiltonian cached by Hamiltonian and duration, for a
    segment with no gradient or with z = 0 everywhere), that unitary times
    the member phases exp(-i gamma z g dt Jz/2) (a segment that commutes
    with Jz), or an RF piece under a gradient. Each is an entire function of
    z of half-width w = gamma |g| dt max|z| (0 for a shared unitary).

    Rows are taken in order of decreasing max|z|, and one builder makes
    each row's chain from a source: it groups the source's entries into
    runs while their summed w at the row's max|z| needs N < RUN_TERMS
    Chebyshev terms for a tail bound below 1e-17 (`_half_widths`), whatever
    the member count, and fits each run from one product at its N Chebyshev
    points (`_fit_run`). An entry whose own N reaches RUN_TERMS enters the
    chain as it is: member phases, or the per-member Taylor exponential
    `_expm_members`. The first source is the factors, so the RF pieces are
    fitted alone in the widest row's runs; narrower rows refit products.
    Without a gradient (one molecule among them) the chain is one run with
    N = 1. A row of equal width reuses the chain. The first chain becomes
    the source, as does any later one of at most half the source's length,
    so refits nest at most 1 + log2(L) deep for a widest chain of L
    entries, and round-off does not grow with the number of rows; a row
    that keeps the source multiplies out fewer than twice its own chain's.

    Regrouping can merge a source's runs but never split one, so a row's
    chain can be longer than the factors grouped afresh at its width: on
    the shipped noisy_gate gate 84, 20 and 10 entries against 83, 19 and 9
    at 50, 10 and 5 kHz/cm, 12 more block products per sweep. That is the
    price of the cascade; grouping the factors afresh at every row, with
    the RF pieces read from their widest-row fits, multiplies every factor
    out again at each row and made the shipped noisy_gate about 20% slower.

    Each block of at most BLOCK members of a row multiplies the chain out
    in one `_multiply_out`, a fitted run being one real product with the
    block's basis T_k(z / max|z|) (`_basis`).
    """
    z = np.asarray(z, dtype=float)
    rows = z.reshape(math.prod(z.shape[:-1]), z.shape[-1] if z.ndim else 1)
    row_max = np.abs(rows).max(axis=1, initial=0.0)  # NaN if any z of the row is
    z_max = float(row_max.max(initial=0.0))
    # a factor: (shared unitary or None, rad/s per metre of z or None, RF segment or None)
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

    out = np.empty(rows.shape + (4, 4), dtype=complex) if reduce is None else np.empty(rows.shape)
    # the source's entries and their half-widths at s_max: the factors' per metre of z
    source, s_max = factors, 1.0
    widths = [0.0 if rate is None else abs(rate) * (seg.duration if seg else 1.0) for _, rate, seg in factors]
    for r in np.argsort(-row_max, kind="stable"):  # widest first; NaN rows, which carry no width, last
        r_max = float(row_max[r])
        if source is factors or r_max < c_max and any(widths):  # else the chain holds: same width, or none
            scaled = [w * (r_max / s_max) if w else 0.0 for w in widths]
            runs = _group_runs(scaled)
            chain = [_fit_run(source[i:j], n, r_max, s_max) if n else source[i] for i, j, n in runs]
            c_max = r_max  # the chain's fitted entries read z / c_max
            if source is factors or 2 * len(chain) <= len(source):
                source, widths, s_max = chain, [sum(scaled[i:j]) for i, j, _ in runs], r_max
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
