/* One chunk of zograd's lane loop (solver.run) in C.

   Mirror descent on a 1-d box against one of two kinds of oracle:

   - an estimator oracle of a 1-d quadratic f(y) = (ca*y + cb)*y + cc:
     one-point G = (f(y) + xi)*w with y = x + du, or two-point
     G = (Z+ - Z-)*w with Z = f(x +- du) + xi, or, for the additive
     controlled model, Z = f(a) + (sigma*psi)*(1 + slope*a);
   - an oracle that answers at y = x from a closed form of arm v of a hard
     pair of separation eps: the exact gradient of softabs(v, eps),
     eps*tanh((x - v)*(0.5/eps)), or of the strongly convex pair, x - v*eps;
     or the adversarial reply, that slope shifted by the lane's shift and
     clipped (adversarial.mean_response_convex and
     mean_response_strongly_convex), plus the noise xi.

   Every lane of the chunk is advanced through its m steps, all lanes one
   step at a time; the draws are the ones solver.run would feed
   oracle.estimate, stacked (steps, lanes, ...) as _next_chunk stacks them.

   Each value is computed with the operations, and in the order, of the
   numpy loop it replaces, so that compiled without contraction or
   fast-math (-ffp-contract=off) every result equals numpy's bit for bit.
   tanh is numpy's own: libm's differs from it in the last bit.  Built with
   ZG_UFUNC, against Python.h and numpy/ufuncobject.h, the library holds
   the d->d inner loop of np.tanh, read from the ufunc once when it loads
   (zg_bind_tanh), and at each step applies it to the tanh arguments of
   every lane, written into one buffer.  The loop touches no Python object,
   so a whole chunk runs without the interpreter lock.  Built without
   ZG_UFUNC, the kernel has no tanh and takes no SOFTABS cell.  The minima,
   maxima and clamps keep a NaN, as np.minimum and np.maximum do.

   Built with ZG_NPYRANDOM, the library also fills each chunk's draws
   (zg_lane_draws, zg_skip) from each lane's numpy bit generator, with the
   samplers numpy's Generator itself calls: random_standard_normal_fill and
   random_bounded_uint64_fill of numpy/random/lib/libnpyrandom.a, linked in
   statically.  They are declared here against numpy/random/bitgen.h, since
   numpy/random/distributions.h needs Python.h. */

#ifdef ZG_UFUNC
/* Python.h goes before any standard header */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"

/* numpy's inner loop of np.tanh for doubles and its data, or NULL */
static PyUFuncGenericFunction tanh_loop;
static void *tanh_data;

/* Bind inner loop i of the ufunc np.tanh.  Reads the ufunc's loop table
   only, so it calls no Python API; called with the interpreter lock held.
   0, or -1 where loop i is not a d->d loop of a one-in, one-out ufunc. */
int zg_bind_tanh(PyObject *ufunc, long i)
{
    const PyUFuncObject *u = (const PyUFuncObject *)ufunc;
    if (u->nin != 1 || u->nout != 1 || i < 0 || i >= u->ntypes || u->functions == NULL
        || u->functions[i] == NULL || u->types[2 * i] != NPY_DOUBLE || u->types[2 * i + 1] != NPY_DOUBLE)
        return -1;
    tanh_loop = u->functions[i];
    tanh_data = u->data == NULL ? NULL : u->data[i];
    return 0;
}

/* numpy's tanh of x[0 .. n-1], in place, as np.tanh(x, out=x) applies it */
static void numpy_tanh(long n, double *x)
{
    char *args[2] = {(char *)x, (char *)x};
    npy_intp dims[1] = {n}, steps[2] = {sizeof(double), sizeof(double)};
    tanh_loop(args, dims, steps, tanh_data);
}

/* The bound loop on x[0 .. n-1], in place, one call per consecutive piece,
   the k-th of pieces[k % count] values (the last may be shorter): how the
   loader checks it against np.tanh. */
void zg_tanh(long n, const long *pieces, long count, double *x)
{
    long start = 0;
    for (long k = 0; start < n; k++) {
        const long piece = pieces[k % count] < n - start ? pieces[k % count] : n - start;
        numpy_tanh(piece, x + start);
        start += piece;
    }
}
#endif

#include <math.h>

enum {
    TWO_POINT = 1,   /* two arms, du and xi hold (+, -) pairs */
    EVAL_POINT = 2,  /* the evaluation point is y = x + du, else x */
    CONTROLLED = 4,  /* xi holds one psi per step, shared by both arms */
    LANE_ETA = 8,    /* eta is (steps, lanes), else one eta per step */
    REGRET = 16,     /* accumulate the loss of each round into regret */
    AT_X = 32,       /* a closed-form reply at y = x, not an estimator */
    SOFTABS = 64,    /* AT_X: the softabs pair, else the strongly convex one */
    SHIFTED = 128,   /* AT_X: the adversarial reply, else the exact gradient */
};

static double quad(const double *c, double y)
{
    return (c[0] * y + c[1]) * y + c[2];
}

/* np.minimum and np.maximum: a NaN in either wins, else b on a tie */
static double nan_min(double a, double b)
{
    return (a != a || a < b) ? a : b;
}

static double nan_max(double a, double b)
{
    return (a != a || a > b) ? a : b;
}

/* G of lane i at xv under an AT_X oracle of arm c[0] = v, separation
   c[1] = eps; t holds numpy's tanh of the lane's arguments. */
static double at_x(long flags, const double *c, double xv, double shift, const double *t)
{
    const double v = c[0], eps = c[1];
    if (!(flags & SOFTABS))
        return (flags & SHIFTED) ? (xv - v * eps) + v * shift : xv - v * eps;
    if (!(flags & SHIFTED))
        return eps * t[0];
    const double g_plus = eps * t[0], g_minus = eps * t[1];
    if (v > 0) {
        const double raised = g_plus + shift;
        return xv < 0 ? raised : nan_min(raised, g_minus - shift);
    }
    const double lowered = g_minus - shift;
    return xv > 0 ? lowered : nan_max(lowered, g_plus + shift);
}

/* c holds lower, upper, f_star, then the oracle's formula data: ca, cb,
   cc, sigma, slope for an estimator, v, eps for AT_X.  shift[i] is lane
   i's adversarial shift.  snap_at[i] is the step of the chunk (1..m) after
   which lane i's sum and regret go to snap_sum[i] and snap_regret[i], or
   0.  steps[k] receives eta*G and, for an estimator, offsets[k] receives
   y - x, k = step*lanes + lane.  For SOFTABS, targs holds room for the
   lanes' tanh arguments (two per lane for the adversarial reply, at +1 and
   -1, one for the exact gradient), which numpy's loop replaces with their
   tanh in place. */
void zg_lane_chunk(long m, long lanes, long flags, const double *c,
                   const double *du, const double *w, const double *xi,
                   const double *eta, const double *shift, const long *snap_at,
                   double *x, double *sum_x, double *regret,
                   double *steps, double *offsets,
                   double *snap_sum, double *snap_regret,
                   double *targs)
{
    const double lo = c[0], hi = c[1], f_star = c[2];
    const double *q = c + 3;
    const double sigma = q[3], slope = q[4];
    const long width = !(flags & SOFTABS) ? 0 : (flags & SHIFTED) ? 2 : 1;  /* tanh arguments per lane */
    for (long j = 0; j < m; j++) {
#ifdef ZG_UFUNC
        if (flags & SOFTABS) {
            const double v = q[0], half_inv = 0.5 / q[1];
            for (long i = 0; i < lanes; i++) {
                if (flags & SHIFTED) {
                    targs[2 * i] = (x[i] - 1.0) * half_inv;
                    targs[2 * i + 1] = (x[i] - -1.0) * half_inv;
                } else {
                    targs[i] = (x[i] - v) * half_inv;
                }
            }
            numpy_tanh(width * lanes, targs);
        }
#endif
        for (long i = 0; i < lanes; i++) {
            const long k = j * lanes + i;
            const double xv = x[i];
            double g, y = xv, loss = 0.0;
            if (flags & AT_X) {
                const double *t = targs + width * i;
                g = (flags & SHIFTED) ? at_x(flags, q, xv, shift[i], t) + xi[k] : at_x(flags, q, xv, 0.0, t);
            } else if (!(flags & TWO_POINT)) {
                const double yp = xv + du[k], fy = quad(q, yp);
                g = (fy + xi[k]) * w[k];
                y = (flags & EVAL_POINT) ? yp : xv;
                loss = (flags & EVAL_POINT) ? fy : quad(q, xv);
            } else {
                const double yp = xv + du[2 * k], ym = xv + du[2 * k + 1];
                const double fp = quad(q, yp), fm = quad(q, ym);
                double zp, zm;
                if (flags & CONTROLLED) {
                    const double sp = sigma * xi[k];
                    zp = fp + sp * (1.0 + slope * yp);
                    zm = fm + sp * (1.0 + slope * ym);
                } else {
                    zp = fp + xi[2 * k];
                    zm = fm + xi[2 * k + 1];
                }
                g = (zp - zm) * w[k];
                y = (flags & EVAL_POINT) ? yp : xv;
                if ((flags & EVAL_POINT) && !(flags & CONTROLLED))
                    loss = 0.5 * (fp + fm);
                else
                    loss = 0.5 * (quad(q, y) + quad(q, 2.0 * xv - y));
            }
            if (flags & REGRET)
                regret[i] += loss - f_star;
            const double step = ((flags & LANE_ETA) ? eta[k] : eta[j]) * g;
            steps[k] = step;
            if (!(flags & AT_X))
                offsets[k] = y - xv;
            double v = xv - step;
            if (v < lo)
                v = lo;
            if (v > hi)
                v = hi;
            x[i] = v;
            sum_x[i] += v;
            if (snap_at[i] == j + 1) {
                snap_sum[i] = sum_x[i];
                snap_regret[i] = regret[i];
            }
        }
    }
}

#ifdef ZG_NPYRANDOM
#include <stdbool.h>
#include <stdint.h>

#include "numpy/random/bitgen.h"

void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);

/* the samplers of a draw spec (_lanes.LaneDraws) */
enum { NORMAL = 1, BITS = 2 };
/* how a 1-d direction U and its weight V come from U's variate
   (PerturbationScheme.directions and v_of) */
enum { SIGNS, UNIT, UNIT_SCALED, PLAIN };

/* n variates of kind from bg into out, in one call: for BITS the bits of
   rng.integers(0, 2, size=(n, 1)), for NORMAL rng.standard_normal(n) */
static void fill(bitgen_t *bg, long kind, long n, void *out)
{
    if (kind == BITS)
        random_bounded_uint64_fill(bg, 0, 1, n, false, (uint64_t *)out);
    else
        random_standard_normal_fill(bg, n, (double *)out);
}

/* Advance bg past n variates of kind, drawn chunk at a time, as the pass of
   core.draw_chunks that skips a copy of the generator past the directions
   draws them.  scratch holds chunk values. */
void zg_skip(bitgen_t *bg, long kind, long n, long chunk, void *scratch)
{
    for (long start = 0; start < n; start += chunk)
        fill(bg, kind, n - start < chunk ? n - start : chunk, scratch);
}

/* One chunk of m steps' draws of every lane, laid out (steps, lanes, ...)
   as _next_chunk stacks the chunks of oracle.make_stepper: du (width[0]
   offsets per lane-step, du and then -du for two arms), w (width[1] = 1)
   and xi (width[2] values, or none).

   spec holds the samplers of the directions and of the noise (0 for
   none), the direction transform, and whether the noise is scaled;
   scale[3*i .. 3*i + 2] holds lane i's delta, its weight over delta
   (1/delta, or 0.5/delta for two arms) and the scale of its noise.  Lane
   i draws its next min(m, left[i]) steps, directions from dir_bg[i] and
   noise from noise_bg[i], gets zeros after them, and left[i] goes down by
   that many.
   Each value is computed with the operations, and in the order, of the
   numpy steppers.  scratch holds width[2]*m values. */
void zg_lane_draws(long m, long lanes, const long *spec, const long *width, const double *scale,
                   long *left, bitgen_t **dir_bg, bitgen_t **noise_bg,
                   double *du, double *w, double *xi, void *scratch)
{
    const long dir = spec[0], noise = spec[1], transform = spec[2], scaled = spec[3];
    const long arms = width[0], nx = width[2];
    const double *z = scratch;
    const uint64_t *bits = scratch;
    for (long i = 0; i < lanes; i++) {
        const long steps = left[i] < m ? left[i] : m;
        const double delta = scale[3 * i], weight = scale[3 * i + 1], sd = scale[3 * i + 2];
        if (dir) {
            fill(dir_bg[i], dir, steps, scratch);
            for (long j = 0; j < m; j++) {
                const long k = j * lanes + i;
                double offset = 0.0, weighted = 0.0;
                if (j < steps) {
                    double u, v;
                    if (transform == SIGNS) {
                        u = (double)bits[j] * 2.0 - 1.0;
                        v = 1.0 / u;
                    } else {
                        u = transform == PLAIN ? z[j] : z[j] / sqrt(z[j] * z[j]);
                        if (transform == UNIT_SCALED)
                            u = u * 1.0;  /* math.sqrt(d) at d = 1 */
                        v = u;
                    }
                    offset = delta * u;
                    weighted = v * weight;
                }
                du[arms * k] = offset;
                if (arms == 2)
                    du[2 * k + 1] = j < steps ? -offset : 0.0;
                w[k] = weighted;
            }
        }
        if (nx) {
            if (noise)
                fill(noise_bg[i], noise, nx * steps, scratch);
            for (long j = 0; j < m; j++)
                for (long a = 0; a < nx; a++)
                    xi[(j * lanes + i) * nx + a] =
                        !(noise && j < steps) ? 0.0 : scaled ? sd * z[j * nx + a] : z[j * nx + a];
        }
        left[i] -= steps;
    }
}
#endif
