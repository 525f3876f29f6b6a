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
   tanh is numpy's own: libm's differs from it in the last bit, so at each
   step the kernel writes the tanh arguments of every lane into one buffer
   and calls back into Python, which applies np.tanh to it in place.  The
   minima, maxima and clamps keep a NaN, as np.minimum and np.maximum do. */

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
   -1, one for the exact gradient), and apply_tanh replaces them with their
   tanh in place. */
void zg_lane_chunk(long m, long lanes, long flags, const double *c,
                   const double *du, const double *w, const double *xi,
                   const double *eta, const double *shift, const long *snap_at,
                   double *x, double *sum_x, double *regret,
                   double *steps, double *offsets,
                   double *snap_sum, double *snap_regret,
                   double *targs, void (*apply_tanh)(void))
{
    const double lo = c[0], hi = c[1], f_star = c[2];
    const double *q = c + 3;
    const double sigma = q[3], slope = q[4];
    const long width = !(flags & SOFTABS) ? 0 : (flags & SHIFTED) ? 2 : 1;  /* tanh arguments per lane */
    for (long j = 0; j < m; j++) {
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
            apply_tanh();
        }
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
