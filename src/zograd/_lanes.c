/* zograd's lane loop (solver.run) in C, one call per run, and an oracle's
   m replies at one point (oracle.sample_gradients) and their moments
   (probes.probe_bias_variance), one call per probe.

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

   A run is stated once, in its flag bits (the oracle's formula and draws,
   and the run's mode), its formula data, and one row per lane of the
   lane's constants, step sizes and generators (struct lane,
   _lanes.LaneRun).  zg_lane_run advances every lane from step 1 to its
   horizon in chunks of steps: it fills a chunk's draws of every lane
   (zg_lane_draws) and then advances every lane through the chunk, all
   lanes one step at a time, so that numpy's tanh loop gets every lane's
   arguments of a step in one call; a lane whose horizon falls inside the
   chunk stops there and leaves the table after it.  After each chunk it
   checks, as solver.run does, that every lane's steps, sum and regret are
   finite and then that every evaluation point lay within its lane's
   vicinity tolerance, and stops at the first fault.  The draws are the
   ones solver.run would feed oracle.estimate, stacked (steps, lanes, ...)
   as _next_chunk stacks them.  A recorded run is given a record buffer,
   the arrays of solver.RunTrace, into which each live lane-step writes
   the values it computes for the step and the regret: its new iterate,
   evaluation point, G and, for an estimator, round loss.

   zg_probe makes the m replies of a 1-d oracle at one point x
   (_lanes.probe_replies): zg_lane_draws fills their draws on one lane of m
   steps, reading the probe's generator for the directions and the noise,
   as the oracle's _draws reads it, and the formulas of the run, shared
   with it (values, reply, at_x), compute each reply from them.  A probe
   also takes the estimators of two more 1-d targets, which runs do not:
   the kinked quadratic 0.5*a*y*y, a = a_neg for y < 0 and a_pos
   otherwise, and exp(y) - y; and an antithetic one-point probe (MIRROR),
   whose reply is the mean of the replies at +du and at -du with weight
   -w and a second block of noise.  Given a moments output, the same call
   then folds the replies into the moments probes.probe_bias_variance reads
   (zg_moments): means and mean centred squares, each the bits of np.mean,
   whose sums take numpy's pairwise order; _lanes checks them against
   numpy's on one case the first time a probe asks for them.

   zg_seed writes the words each lane's PCG64 seeds from
   (_lanes.seed_words, core.generators): numpy's SeedSequence hash of the
   master seed and of each stream's key, one call for all of a run's
   lanes; the loader checks it against SeedSequence on one case.

   Each value is computed with the operations, and in the order, of the
   numpy code it replaces, so that compiled without contraction or
   fast-math (-ffp-contract=off) every result equals numpy's bit for bit.
   An operation that leaves every double unchanged, such as rdsa's scaling
   by sqrt(d) = 1 at d = 1, is omitted, and one is added where it spares a
   flag: the additive controlled model's psi is scaled by 1.0.  tanh and
   exp are numpy's own: libm's differ from them in the last bit.  Built
   with ZG_UFUNC, against Python.h and numpy/ufuncobject.h, the library
   holds the d->d inner loops of np.tanh and np.exp, each read from its
   ufunc the first time a reply needs it (zg_bind_loop).  A run applies the
   tanh loop at each step to the tanh arguments of every lane, written into
   one buffer; a probe applies the exp loop to the arms of a block of
   replies.  The loops touch no Python object, so a whole call goes without
   the interpreter lock.  Built without ZG_UFUNC, the kernel has neither
   and takes no SOFTABS or EXP cell.  The minima, maxima and clamps keep a
   NaN, as np.minimum and np.maximum do.

   A lane's directions read its own numpy bit generator.  An estimator's
   noise reads the twin of that generator jumped once
   (bit_generator.jumped()), which _lanes.LaneRun takes from the
   generator's state at the start of the run, as core.draw_chunks takes it;
   an oracle that draws no directions, and a lane of draws at one point,
   read their noise from the lane's generator.  The draws come with the
   samplers numpy's Generator itself calls, from
   numpy/random/lib/libnpyrandom.a, linked in statically:
   random_bounded_uint64_fill for bits, and for normals numpy's ziggurat
   (random_standard_normal, Marsaglia & Tsang 2000) with its fast path
   inlined.  That path takes one 64-bit draw per value and applies the sign
   without a branch; the other draws, about 1 in 100, are handed back to
   random_standard_normal itself, which is given the consumed draw again
   and then the lane's generator, so every rejection and tail draw is
   numpy's own code.  The fast path's tables are not copied: zg_bind_normal
   reads them out of random_standard_normal when the library loads, and the
   loader checks the fill against Generator.standard_normal; where the
   tables cannot be read or the check fails, zg_unbind_normal sends every
   draw to random_standard_normal, and the loader checks the fill again.
   numpy's samplers are declared here against numpy/random/bitgen.h, since
   numpy/random/distributions.h needs Python.h. */

#ifdef ZG_UFUNC
/* Python.h goes before any standard header */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"

/* the d->d inner loops of np.tanh and np.exp that the library binds, and their data, or NULL */
enum { TANH_LOOP, EXP_LOOP, LOOPS };
static PyUFuncGenericFunction loop[LOOPS];
static void *loop_data[LOOPS];

/* Bind inner loop i of the ufunc np.tanh or np.exp as loop `which`.
   Reads the ufunc's loop table only, so it calls no Python API; called
   with the interpreter lock held.  0, or -1 where loop i is not a d->d
   loop of a one-in, one-out ufunc. */
int zg_bind_loop(PyObject *ufunc, long i, long which)
{
    const PyUFuncObject *u = (const PyUFuncObject *)ufunc;
    if (which < 0 || which >= LOOPS || u->nin != 1 || u->nout != 1 || i < 0 || i >= u->ntypes
        || u->functions == NULL || u->functions[i] == NULL || u->types[2 * i] != NPY_DOUBLE
        || u->types[2 * i + 1] != NPY_DOUBLE)
        return -1;
    loop[which] = u->functions[i];
    loop_data[which] = u->data == NULL ? NULL : u->data[i];
    return 0;
}

/* numpy's loop `which` on x[0 .. n-1], in place, as np.tanh(x, out=x) or
   np.exp(x, out=x) applies it */
static void numpy_loop(long which, long n, double *x)
{
    char *args[2] = {(char *)x, (char *)x};
    npy_intp dims[1] = {n}, steps[2] = {sizeof(double), sizeof(double)};
    loop[which](args, dims, steps, loop_data[which]);
}

/* The bound loop `which` on x[0 .. n-1], in place, one call per
   consecutive piece, the k-th of pieces[k % count] values (the last may be
   shorter): how the loader checks it against its ufunc. */
void zg_loop(long which, long n, const long *pieces, long count, double *x)
{
    long start = 0;
    for (long k = 0; start < n; k++) {
        const long piece = pieces[k % count] < n - start ? pieces[k % count] : n - start;
        numpy_loop(which, piece, x + start);
        start += piece;
    }
}
#endif

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

enum {
    TWO_POINT = 1,   /* two arms, du and xi hold (+, -) pairs */
    EVAL_POINT = 2,  /* the evaluation point is y = x + du, else x */
    CONTROLLED = 4,  /* xi holds one psi per step, shared by both arms */
    MIRROR = 8,      /* a one-point reply averaged with its mirror at -du, -w and a second block of noise */
    REGRET = 16,     /* accumulate the loss of each round into regret */
    AT_X = 32,       /* a closed-form reply at y = x, not an estimator */
    SOFTABS = 64,    /* AT_X: the softabs pair, else the strongly convex one */
    SHIFTED = 128,   /* AT_X: the adversarial reply, else the exact gradient */
    NOISE = 256,     /* xi is the lane's noise scale times its normals, else zeros */
    SIGNS = 512,     /* directions U = 2b - 1 of bits b, V = 1/U */
    UNIT = 1024,     /* directions U = z/|z| of normals z, V = U */
    PLAIN = 2048,    /* directions U = z of normals z, V = U */
    KINKED = 4096,   /* f is the kinked quadratic, not the quadratic */
    EXP = 8192,      /* f is exp(y) - y, not the quadratic */
};
#define DIRECTIONS (SIGNS | UNIT | PLAIN)

/* One lane of a run: a row of the table _lanes.LaneRun keeps */
struct lane {
    double delta;           /* its schedule's delta */
    double weight;          /* the weight over delta: 1/delta, or 0.5/delta for two arms */
    double scale;           /* the scale of its noise */
    double shift;           /* the adversarial shift min(eps, c1*delta^p) */
    double tol;             /* the largest |y - x| accepted: its schedule's delta up to roundoff */
    const double *eta;      /* its schedule's step sizes eta_1, eta_2, ... */
    long left;              /* the steps it has still to take */
    long index;             /* its row of x, sum_x and regret */
    bitgen_t *dir, *noise;  /* the generators of its directions and of its noise */
};

/* The first fault of a run, as _lanes.FAULT: a lane whose steps, sum or
   regret went non-finite within the chunk of steps first..last, or a lane
   whose evaluation point lay dist from x at step first, beyond its tol */
struct fault {
    long lane, first, last;
    double dist;
};

enum { NONFINITE = 1, ESCAPED = 2 };

double random_standard_normal(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);

/* A 64-bit draw r of numpy's ziggurat is split into the strip r & 0xff,
   the sign bit 8, and the 52-bit magnitude above it.  A draw of strip idx
   is x = rabs*wi[idx], taken where rabs < zg_ki[idx]; zg_ki[idx] = 0 sends
   every draw of the strip to random_standard_normal.  zg_ki is exported so
   that it can be read from outside. */
#define STRIPS 256
#define STRIP(r) ((int)((r) & 0xff))
#define SIGN(r) (((r) >> 8) & 1)
#define RABS(r) (((r) >> 9) & 0x000fffffffffffff)
#define RABS_END ((uint64_t)1 << 52)

static double wi[STRIPS];
uint64_t zg_ki[STRIPS];

/* numpy's random_standard_normal on a probe generator: its first 64-bit
   draw is r, then every 64-bit draw is strip 2 with rabs 0 and every
   double 0.5, which end the sampler's loop in the tail and in any wedge. */
struct probe {
    uint64_t r;
    long asked;  /* the values the sampler asked for */
};

static uint64_t probe_uint64(void *st)
{
    struct probe *p = st;
    return p->asked++ == 0 ? p->r : 2;
}

static uint32_t probe_uint32(void *st)
{
    ((struct probe *)st)->asked++;
    return 0;
}

static double probe_double(void *st)
{
    ((struct probe *)st)->asked++;
    return 0.5;
}

/* The sampler's value for a first draw of strip idx, sign 0 and magnitude
   rabs; *taken tells whether it returned it without asking for another. */
static double probe(int idx, uint64_t rabs, bool *taken)
{
    struct probe p = {rabs << 9 | (uint64_t)idx, 0};
    bitgen_t bg = {&p, probe_uint64, probe_uint32, probe_double, probe_uint64};
    const double x = random_standard_normal(&bg);
    *taken = p.asked == 1;
    return x;
}

/* Send every normal of zg_normal_fill to random_standard_normal. */
void zg_unbind_normal(void)
{
    for (int idx = 0; idx < STRIPS; idx++)
        zg_ki[idx] = 0;
}

/* Read wi and ki out of random_standard_normal: wi[idx] is its value at
   rabs = 1, and ki[idx] the least rabs at which it asks for another value,
   found by bisection (RABS_END where none does); a strip that refuses
   rabs = 1 gets ki = 0.  0, or -1, with every ki 0, where the sampler is
   not a ziggurat of that shape. */
int zg_bind_normal(void)
{
    int idx;
    for (idx = 0; idx < STRIPS; idx++) {
        bool taken;
        const double w = probe(idx, 1, &taken);
        if (!taken) {
            wi[idx] = 0.0;
            zg_ki[idx] = 0;
            continue;
        }
        if (!(w > 0.0 && w < INFINITY))
            break;
        uint64_t lo = 1, hi = RABS_END;  /* lo is taken; hi is refused, or the end */
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            probe(idx, mid, &taken);
            if (taken)
                lo = mid;
            else
                hi = mid;
        }
        if (probe(idx, lo, &taken) != (double)(int64_t)lo * w)
            break;
        wi[idx] = w;
        zg_ki[idx] = hi;
    }
    if (idx == STRIPS)
        return 0;
    zg_unbind_normal();
    return -1;
}

/* The draws of a replay generator: the consumed draw r once, then bg's */
struct replay {
    bitgen_t *bg;
    uint64_t r;
    bool pending;
};

static uint64_t replay_uint64(void *st)
{
    struct replay *p = st;
    if (p->pending) {
        p->pending = false;
        return p->r;
    }
    return p->bg->next_uint64(p->bg->state);
}

static uint32_t replay_uint32(void *st)
{
    const struct replay *p = st;
    return p->bg->next_uint32(p->bg->state);
}

static double replay_double(void *st)
{
    const struct replay *p = st;
    return p->bg->next_double(p->bg->state);
}

static uint64_t replay_raw(void *st)
{
    const struct replay *p = st;
    return p->bg->next_raw(p->bg->state);
}

/* numpy's normal whose first draw r, already taken from bg, missed the fast path */
static double slow_normal(bitgen_t *bg, uint64_t r)
{
    struct replay p = {bg, r, true};
    bitgen_t replay = {&p, replay_uint64, replay_uint32, replay_double, replay_raw};
    return random_standard_normal(&replay);
}

/* n of numpy's standard normals from bg into out, as
   Generator.standard_normal gives them, with its fast path inline: the
   sign bit goes to bit 63 by XOR, which is numpy's x = -x, -0.0 too. */
void zg_normal_fill(bitgen_t *bg, long n, double *out)
{
    for (long i = 0; i < n; i++) {
        const uint64_t r = bg->next_uint64(bg->state);
        const int idx = STRIP(r);
        const uint64_t rabs = RABS(r);
        union {
            double d;
            uint64_t u;
        } x = {.d = (double)(int64_t)rabs * wi[idx]};  /* rabs < 2^52: exact, as numpy's conversion */
        x.u ^= SIGN(r) << 63;
        out[i] = rabs < zg_ki[idx] ? x.d : slow_normal(bg, r);
    }
}

/* n variates from bg into out, in one call: for SIGNS the bits of
   rng.integers(0, 2, size=(n, 1)), else rng.standard_normal(n) */
static void fill(bitgen_t *bg, long flags, long n, void *out)
{
    if (flags & SIGNS)
        random_bounded_uint64_fill(bg, 0, 1, n, false, (uint64_t *)out);
    else
        zg_normal_fill(bg, n, (double *)out);
}

/* The values per lane-step of each draw, du, w and xi, under flags */
static void widths(long flags, long *width)
{
    const long arms = (flags & (TWO_POINT | MIRROR)) ? 2 : 1;
    width[0] = (flags & DIRECTIONS) ? arms : 0;
    width[1] = (flags & DIRECTIONS) ? 1 : 0;
    width[2] = (flags & AT_X) ? ((flags & NOISE) ? 1 : 0) : (flags & CONTROLLED) ? 1 : arms;
}

/* The doubles of scratch that zg_lane_run needs for chunks of m steps of
   lanes lanes: a chunk's draws, then its variates or the tanh arguments of
   a step, then one finiteness flag per lane */
long zg_scratch(long m, long lanes, long flags)
{
    long width[3];
    widths(flags, width);
    const long draws = (width[0] + width[1] + width[2]) * m * lanes, variates = (width[2] > 1 ? 2 : 1) * m;
    return draws + (variates > 2 * lanes ? variates : 2 * lanes) + lanes;
}

/* One chunk of m steps' draws of every lane, written to out as _next_chunk
   stacks the chunks of oracle.make_stepper: du (width[0] offsets per
   lane-step, du and then -du for two arms), then w (width[1]), then xi
   (width[2]), each laid out (steps, lanes, ...); on one lane of m steps,
   xi holds the noise of every arm in the order it was drawn.  Lane i draws
   its next min(m, left) steps, directions from its dir generator and noise
   from its noise generator, and gets zeros after them.  Each value is
   computed with the operations, and in the order, of the numpy steppers.
   The values that follow the draws in out are scratch.  Returns the number
   of draws. */
long zg_lane_draws(long m, long lanes, long flags, const struct lane *lane, double *out)
{
    long width[3];
    widths(flags, width);
    const long arms = width[0], nx = width[2];
    double *du = out, *w = du + arms * m * lanes, *xi = w + width[1] * m * lanes, *z = xi + nx * m * lanes;
    const uint64_t *bits = (const uint64_t *)z;
    for (long i = 0; i < lanes; i++) {
        const struct lane *l = lane + i;
        const long steps = l->left < m ? l->left : m;
        if (flags & DIRECTIONS) {
            fill(l->dir, flags, steps, z);
            for (long j = 0; j < m; j++) {
                const long k = j * lanes + i;
                double offset = 0.0, weighted = 0.0;
                if (j < steps) {
                    double u, v;
                    if (flags & SIGNS) {
                        u = (double)bits[j] * 2.0 - 1.0;
                        v = 1.0 / u;
                    } else {
                        u = (flags & PLAIN) ? z[j] : z[j] / sqrt(z[j] * z[j]);
                        v = u;
                    }
                    offset = l->delta * u;
                    weighted = v * l->weight;
                }
                du[arms * k] = offset;
                if (arms == 2)
                    du[2 * k + 1] = j < steps ? -offset : 0.0;
                w[k] = weighted;
            }
        }
        if (nx) {
            if (flags & NOISE)
                fill(l->noise, 0, nx * steps, z);
            for (long j = 0; j < m; j++)
                for (long a = 0; a < nx; a++)
                    xi[(j * lanes + i) * nx + a] = (flags & NOISE) && j < steps ? l->scale * z[j * nx + a] : 0.0;
        }
    }
    return (width[0] + width[1] + nx) * m * lanes;
}

static double quad(const double *c, double y)
{
    return (c[0] * y + c[1]) * y + c[2];
}

/* f at the n points y = x + du[i] into fy, with the operations of the
   target's value: the quadratic (c[0]*y + c[1])*y + c[2], the kinked
   quadratic 0.5*a*y*y with a = c[0] for y < 0 and c[1] otherwise (KINKED),
   or exp(y) - y with numpy's exp (EXP) */
static void values(long flags, const double *c, long n, double x, const double *du, double *restrict fy)
{
#ifdef ZG_UFUNC
    if (flags & EXP) {
        for (long i = 0; i < n; i++)
            fy[i] = x + du[i];
        numpy_loop(EXP_LOOP, n, fy);
        for (long i = 0; i < n; i++)
            fy[i] -= x + du[i];
        return;
    }
#endif
    if (!(flags & KINKED)) {
        for (long i = 0; i < n; i++)
            fy[i] = quad(c, x + du[i]);
        return;
    }
    const double half[2] = {0.5 * c[1], 0.5 * c[0]};  /* 0.5*a for y >= 0 (or NaN), for y < 0 */
    for (long i = 0; i < n; i++) {
        const double y = x + du[i];
        fy[i] = half[y < 0] * y * y;
    }
}

/* G of one estimator reply at x from its arms' offsets du and values fy =
   f(x + du), the arm at +du and, for two arms, the one at -du, its noise,
   xi[0] and the second arm's xi[stride], or the one psi xi[0] of both arms
   (CONTROLLED, where c[3] and c[4] are sigma and slope), and its weight w */
static inline __attribute__((always_inline)) double reply(long flags, const double *c, double x, const double *du,
                                                          const double *fy, const double *xi, long stride, double w)
{
    if (!(flags & TWO_POINT))
        return (fy[0] + xi[0]) * w;
    if (!(flags & CONTROLLED))
        return (fy[0] + xi[0] - (fy[1] + xi[stride])) * w;
    const double sp = c[3] * xi[0], slope = c[4];
    return (fy[0] + sp * (1.0 + slope * (x + du[0])) - (fy[1] + sp * (1.0 + slope * (x + du[1])))) * w;
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

#ifdef ZG_UFUNC
/* The tanh arguments at xv of an oracle of the softabs pair, into t: the
   slopes' at +1 and -1 for the adversarial reply (SHIFTED), else arm v's;
   half_inv is 0.5/eps.  Returns their count. */
static long tanh_args(long flags, double v, double half_inv, double xv, double *t)
{
    if (!(flags & SHIFTED)) {
        t[0] = (xv - v) * half_inv;
        return 1;
    }
    t[0] = (xv - 1.0) * half_inv;
    t[1] = (xv - -1.0) * half_inv;
    return 2;
}
#endif

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

/* Keep the lanes of the table that have steps left, in order; returns their count */
static inline __attribute__((always_inline)) long keep_live(long lanes, struct lane *lane)
{
    long kept = 0;
    for (long i = 0; i < lanes; i++)
        if (lane[i].left > 0)
            lane[kept++] = lane[i];
    return kept;
}

/* Run every lane of the table lane to its horizon, in chunks of at most m
   steps, each filled first (zg_lane_draws) into scratch, which holds
   zg_scratch(m, lanes, flags) values.  c holds lower, upper, f_star, then
   the oracle's formula data: ca, cb, cc, sigma, slope for an estimator, v,
   eps for AT_X.  Lane i takes its left steps, the step at t with step size
   eta[t - 1], and updates x, sum_x and regret at its index, which are then
   its values at its horizon.  For SOFTABS, the lanes' tanh arguments of a
   step (two per lane for the adversarial reply, at +1 and -1, one for the
   exact gradient) are written after the draws in scratch, and numpy's loop
   replaces them with their tanh in place.  The table is left holding the
   lanes that were still running when the run ended.  Where record is not
   NULL, its four arrays, laid out (steps, lanes) by index, get lane i's
   new iterate, y, G and, for an estimator, loss of step t at (t - 1)*lanes
   + index.  Returns 0, or the kind of the first fault, written to fault:
   after each chunk, the first lane, in the table's order, whose steps
   eta*G, sum or regret are not all finite (NONFINITE), else, for an
   estimator, the first step and lane whose |y - x| exceeds the lane's tol
   (ESCAPED).  at is AT_X or 0, the AT_X bit of flags as a constant. */
static inline __attribute__((always_inline)) long lane_run(long at, long m, long lanes, long flags, const double *c,
                                                           struct lane *lane, double *x, double *sum_x,
                                                           double *regret, double *scratch, double *const *record,
                                                           struct fault *fault)
{
    flags = (flags & ~AT_X) | at;
    long width[3];
    widths(flags, width);
    const long stride = lanes;  /* the record's values per step */
    bool *finite = (bool *)(scratch + zg_scratch(m, lanes, flags) - lanes);
    const double lo = c[0], hi = c[1], f_star = c[2];
    const double *q = c + 3;
    const long tw = !(flags & SOFTABS) ? 0 : (flags & SHIFTED) ? 2 : 1;  /* tanh arguments per lane */
    for (long t = 0; (lanes = keep_live(lanes, lane)) > 0;) {
        long mc = 0;  /* the chunk's steps: the most a lane has left, at most m */
        for (long i = 0; i < lanes; i++) {
            mc = lane[i].left > mc ? lane[i].left : mc;
            finite[i] = true;
        }
        mc = mc < m ? mc : m;
        const double *du = scratch, *w = du + width[0] * mc * lanes, *xi = w + width[1] * mc * lanes;
        double *targs = scratch + zg_lane_draws(mc, lanes, flags, lane, scratch);
        struct fault escaped = {-1, 0, 0, 0.0};
        for (long j = 0; j < mc; j++) {
#ifdef ZG_UFUNC
            if (flags & SOFTABS) {
                const double half_inv = 0.5 / q[1];
                for (long i = 0; i < lanes; i++)
                    tanh_args(flags, q[0], half_inv, x[lane[i].index], targs + tw * i);
                numpy_loop(TANH_LOOP, tw * lanes, targs);
            }
#endif
            for (long i = 0; i < lanes; i++) {
                const struct lane *l = lane + i;
                if (j >= l->left)  /* past the lane's horizon */
                    continue;
                const long k = j * lanes + i, r = l->index;
                const double xv = x[r];
                double g, y = xv, loss = 0.0;
                if (flags & AT_X) {
                    const double *tv = targs + tw * i;
                    g = (flags & SHIFTED) ? at_x(flags, q, xv, l->shift, tv) + xi[k] : at_x(flags, q, xv, 0.0, tv);
                } else if (!(flags & TWO_POINT)) {
                    const double yp = xv + du[k], fy = quad(q, yp);
                    g = reply(flags, q, xv, du + k, &fy, xi + k, 1, w[k]);
                    y = (flags & EVAL_POINT) ? yp : xv;
                    loss = (flags & EVAL_POINT) ? fy : quad(q, xv);
                } else {
                    const double ya[2] = {xv + du[2 * k], xv + du[2 * k + 1]};
                    const double fa[2] = {quad(q, ya[0]), quad(q, ya[1])};
                    g = reply(flags, q, xv, du + 2 * k, fa, xi + width[2] * k, 1, w[k]);
                    y = (flags & EVAL_POINT) ? ya[0] : xv;
                    if ((flags & EVAL_POINT) && !(flags & CONTROLLED))
                        loss = 0.5 * (fa[0] + fa[1]);
                    else
                        loss = 0.5 * (quad(q, y) + quad(q, 2.0 * xv - y));
                }
                if (flags & REGRET)
                    regret[r] += loss - f_star;
                const double step = l->eta[t + j] * g;
                if (!isfinite(step))
                    finite[i] = false;
                if (!(flags & AT_X) && escaped.lane < 0 && fabs(y - xv) > l->tol)  /* false for a NaN */
                    escaped = (struct fault){r, t + j + 1, t + j + 1, fabs(y - xv)};
                double v = xv - step;
                if (v < lo)
                    v = lo;
                if (v > hi)
                    v = hi;
                x[r] = v;
                sum_x[r] += v;
                if (record) {
                    const long at = (t + j) * stride + r;
                    record[0][at] = v;
                    record[1][at] = y;
                    record[2][at] = g;
                    if (!(flags & AT_X))
                        record[3][at] = loss;
                }
            }
        }
        for (long i = 0; i < lanes; i++) {
            const long r = lane[i].index;
            if (!(finite[i] && isfinite(sum_x[r]) && isfinite(regret[r]))) {
                *fault = (struct fault){r, t + 1, t + mc, 0.0};
                return NONFINITE;
            }
        }
        if (escaped.lane >= 0) {
            *fault = escaped;
            return ESCAPED;
        }
        for (long i = 0; i < lanes; i++)
            lane[i].left -= lane[i].left < mc ? lane[i].left : mc;
        t += mc;
    }
    return 0;
}

/* lane_run, compiled once for the oracles that answer at x and once for
   the estimators, and each once for a recorded run and once, with its
   record writes left out, for one that is not, so that each loop holds
   only its own branches; the helpers it calls are inlined into each, as
   into one loop */
long zg_lane_run(long m, long lanes, long flags, const double *c, struct lane *lane, double *x, double *sum_x,
                 double *regret, double *scratch, double *const *record, struct fault *fault)
{
    if (flags & AT_X)
        return record ? lane_run(AT_X, m, lanes, flags, c, lane, x, sum_x, regret, scratch, record, fault)
                      : lane_run(AT_X, m, lanes, flags, c, lane, x, sum_x, regret, scratch, NULL, fault);
    return record ? lane_run(0, m, lanes, flags, c, lane, x, sum_x, regret, scratch, record, fault)
                  : lane_run(0, m, lanes, flags, c, lane, x, sum_x, regret, scratch, NULL, fault);
}

/* The replies at x of rows r0 .. r0 + n - 1 into g, from the offsets du
   of all rows and the values fy of these rows' arms, under the formula
   bits `form`, a constant at each call, so that its branches resolve when
   it is compiled; for MIRROR the mean of each reply and its mirror */
static inline __attribute__((always_inline)) void replies(long form, const double *c, long n, long r0, long m,
                                                          double x, const double *du, const double *fy,
                                                          const double *w, const double *xi, double *g)
{
    const long arms = (form & (TWO_POINT | MIRROR)) ? 2 : 1;
    for (long j = 0, r = r0; j < n; j++, r++) {
        const double *d = du + arms * r, *fr = fy + arms * j;
        const double once = reply(form, c, x, d, fr, xi + r, m, w[r]);
        g[r] = (form & MIRROR) ? 0.5 * (once + reply(form, c, x, d + 1, fr + 1, xi + m + r, m, -w[r])) : once;
    }
}

#define PROBE_BLOCK 512

void zg_moments(long m, const double *g, double *out);

/* The m replies G at x of one oracle, written to g, as
   oracle.sample_gradients gives them: the draws of its one lane, filled
   (zg_lane_draws) into scratch, which holds zg_scratch(m, 1, flags)
   values, where on one lane xi holds the noise arm by arm in blocks of m;
   then each reply with the operations of estimate, f evaluated at the
   arms of PROBE_BLOCK replies at a time, and for MIRROR the mean of a
   reply and its mirror.  c holds the oracle's formula data, as in
   zg_lane_run.  Where moments is not NULL, the replies are then folded
   into their moments there (zg_moments), so that a probe is one call from
   draws to moments. */
void zg_probe(long m, long flags, const double *c, const struct lane *lane, double x, double *g, double *scratch,
              double *moments)
{
    long width[3];
    widths(flags, width);
    zg_lane_draws(m, 1, flags, lane, scratch);
    const long arms = width[0];
    const double *du = scratch, *w = du + arms * m, *xi = w + width[1] * m;
    if (flags & AT_X) {  /* one mean at x, plus the noise */
        double t[2] = {0.0, 0.0};
#ifdef ZG_UFUNC
        if (flags & SOFTABS)
            numpy_loop(TANH_LOOP, tanh_args(flags, c[0], 0.5 / c[1], x, t), t);
#endif
        const double mean = at_x(flags, c, x, lane->shift, t);
        for (long j = 0; j < m; j++)
            g[j] = (flags & SHIFTED) ? mean + xi[j] : mean;
    } else {
        double fy[2 * PROBE_BLOCK];
        for (long start = 0; start < m; start += PROBE_BLOCK) {
            const long n = m - start < PROBE_BLOCK ? m - start : PROBE_BLOCK;
            values(flags, c, arms * n, x, du + arms * start, fy);
            switch (flags & (TWO_POINT | CONTROLLED | MIRROR)) {  /* the loop of each form, its branches resolved */
            case TWO_POINT | CONTROLLED:
                replies(TWO_POINT | CONTROLLED, c, n, start, m, x, du, fy, w, xi, g);
                break;
            case TWO_POINT:
                replies(TWO_POINT, c, n, start, m, x, du, fy, w, xi, g);
                break;
            case MIRROR:
                replies(MIRROR, c, n, start, m, x, du, fy, w, xi, g);
                break;
            default:
                replies(0, c, n, start, m, x, du, fy, w, xi, g);
            }
        }
    }
    if (moments != NULL)
        zg_moments(m, g, moments);
}

/* numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size,
   the hash constants of its pool (A) and of its output (B), and its mix */
enum { POOL = 4 };
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_L 0xca01f9ddu
#define MIX_R 0x4973f715u

static uint32_t hashmix(uint32_t value, uint32_t *hash, uint32_t mult)
{
    value ^= *hash;
    *hash *= mult;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t r = MIX_L * x - MIX_R * y;
    return r ^ r >> 16;
}

/* The 4 words a PCG64 seeds from of each of count streams, into out (count
   rows of 4), as SeedSequence(master, spawn_key=(key,)).generate_state(4,
   np.uint64) gives them: the master seed's n_master 32-bit words (least
   significant first), padded with zeros to the pool, are hashed into the
   pool of 4 and mixed, its fifth and later words and then the stream's key
   words are mixed in, and the pool is hashed into 8 words, paired into 4.
   Stream s's key is the next key_lengths[s] words of keys.  The pool after
   the master seed, and the hash constant there, depend on the master seed
   alone, so they are computed once. */
void zg_seed(const uint32_t *master, long n_master, const uint32_t *keys, const long *key_lengths, long count,
             uint64_t *out)
{
    uint32_t start[POOL], hash = INIT_A;
    for (long i = 0; i < POOL; i++)
        start[i] = hashmix(i < n_master ? master[i] : 0, &hash, MULT_A);
    for (long src = 0; src < POOL; src++)
        for (long dst = 0; dst < POOL; dst++)
            if (src != dst)
                start[dst] = mix(start[dst], hashmix(start[src], &hash, MULT_A));
    for (long k = POOL; k < n_master; k++)
        for (long dst = 0; dst < POOL; dst++)
            start[dst] = mix(start[dst], hashmix(master[k], &hash, MULT_A));
    for (long s = 0; s < count; s++, out += 4) {
        uint32_t pool[POOL], h = hash, h_out = INIT_B;
        for (long i = 0; i < POOL; i++)
            pool[i] = start[i];
        for (long k = 0; k < key_lengths[s]; k++, keys++)
            for (long dst = 0; dst < POOL; dst++)
                pool[dst] = mix(pool[dst], hashmix(*keys, &h, MULT_A));
        for (long i = 0; i < 8; i++) {  /* word i is the low half of out[i / 2] for even i, else its high half */
            const uint64_t word = hashmix(pool[i % POOL], &h_out, MULT_B);
            out[i / 2] = i % 2 ? out[i / 2] | word << 32 : word;
        }
    }
}

/* numpy's pairwise summation (pairwise_sum, numpy/_core/src/umath/
   loops_utils.h.src), which np.add.reduce, and so np.mean, takes over a
   contiguous axis: a run of n <= LEAF values is a leaf, and a longer run
   is split at n/2 rounded down to a multiple of 8.  A leaf of fewer than 8
   values is summed in order from 0.0; a longer one in 8 accumulators, r[j]
   the sum of values j, j + 8, j + 16, ... of its whole rows of 8, then
   ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the values past
   the rows in order.  The accumulators are held in pairs, SSE2-wide
   vectors of GCC's extension, each of whose lanes adds as the scalar
   would. */
enum { LEAF = 128, BATCHES = 32 };
typedef double pair __attribute__((vector_size(2 * sizeof(double))));

/* the values a[0] and a[1], or their centred squares (a - c)*(a - c) */
static inline __attribute__((always_inline)) pair terms(const double *a, double c, bool centred)
{
    pair v;
    memcpy(&v, a, sizeof v);
    if (centred) {
        v -= c;
        v *= v;
    }
    return v;
}

static inline __attribute__((always_inline)) double term(double a, double c, bool centred)
{
    return centred ? (a - c) * (a - c) : a;
}

/* numpy's sum of a leaf a[0 .. n-1], n <= LEAF, or of its centred squares */
static inline __attribute__((always_inline)) double leaf(const double *a, long n, double c, bool centred)
{
    double s = 0.0;
    long i = 0;
    if (n >= 8) {
        pair r01 = terms(a, c, centred), r23 = terms(a + 2, c, centred), r45 = terms(a + 4, c, centred),
             r67 = terms(a + 6, c, centred);
        for (i = 8; i < n - n % 8; i += 8) {
            r01 += terms(a + i, c, centred);
            r23 += terms(a + i + 2, c, centred);
            r45 += terms(a + i + 4, c, centred);
            r67 += terms(a + i + 6, c, centred);
        }
        s = ((r01[0] + r01[1]) + (r23[0] + r23[1])) + ((r45[0] + r45[1]) + (r67[0] + r67[1]));
    }
    for (; i < n; i++)
        s += term(a[i], c, centred);
    return s;
}

/* numpy's pairwise sum of a[0 .. n-1] */
static double pairwise(const double *a, long n)
{
    if (n <= LEAF)
        return leaf(a, n, 0.0, false);
    const long half = n / 2 - n / 2 % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* numpy's pairwise sum of the centred squares (a[i] - c)*(a[i] - c) */
static double pairwise_centred(const double *a, long n, double c)
{
    if (n <= LEAF)
        return leaf(a, n, c, true);
    const long half = n / 2 - n / 2 % 8;
    return pairwise_centred(a, half, c) + pairwise_centred(a + half, n - half, c);
}

/* The moments of the m >= BATCHES values g that probes.probe_bias_variance
   reads, into out, 2 + 2*BATCHES doubles, each the bits of numpy's mean
   (np.add.reduce from 0.0, then divided by the count): the mean of g and
   the mean of its squares centred on that mean, then the mean of each of
   the BATCHES batches the first BATCHES*(m / BATCHES) values split into
   in order, then each batch's mean centred square. */
void zg_moments(long m, const double *g, double *out)
{
    const long per = m / BATCHES;
    out[0] = (0.0 + pairwise(g, m)) / (double)m;
    out[1] = (0.0 + pairwise_centred(g, m, out[0])) / (double)m;
    for (long b = 0; b < BATCHES; b++) {
        const double *batch = g + b * per;
        const double mean = (0.0 + pairwise(batch, per)) / (double)per;
        out[2 + b] = mean;
        out[2 + BATCHES + b] = (0.0 + pairwise_centred(batch, per, mean)) / (double)per;
    }
}
