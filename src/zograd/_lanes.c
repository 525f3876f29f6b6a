/* One chunk of zograd's lane loop (solver.run) in C.

   Mirror descent on a 1-d box against an estimator oracle of a 1-d
   quadratic f(y) = (ca*y + cb)*y + cc: one-point G = (f(y) + xi)*w with
   y = x + du, or two-point G = (Z+ - Z-)*w with Z = f(x +- du) + xi, or,
   for the additive controlled model, Z = f(a) + (sigma*psi)*(1 + slope*a).
   Every lane of the chunk is advanced through its m steps; the draws are
   the ones solver.run would feed oracle.estimate, stacked (steps, lanes,
   ...) as _next_chunk stacks them.

   Each value is computed with the operations, and in the order, of the
   numpy loop it replaces, so that compiled without contraction or
   fast-math (-ffp-contract=off) every result equals numpy's bit for bit.
   The clamps keep a NaN, as np.maximum and np.minimum do. */

enum {
    TWO_POINT = 1,   /* two arms, du and xi hold (+, -) pairs */
    EVAL_POINT = 2,  /* the evaluation point is y = x + du, else x */
    CONTROLLED = 4,  /* xi holds one psi per step, shared by both arms */
    LANE_ETA = 8,    /* eta is (steps, lanes), else one eta per step */
    REGRET = 16,     /* accumulate the loss of each round into regret */
};

static double quad(const double *c, double y)
{
    return (c[0] * y + c[1]) * y + c[2];
}

/* c holds ca, cb, cc, sigma, slope, lower, upper, f_star.  snap_at[i] is
   the step of the chunk (1..m) after which lane i's sum and regret go to
   snap_sum[i] and snap_regret[i], or 0.  steps[k] receives eta*G and
   offsets[k] receives y - x, k = step*lanes + lane. */
void zg_lane_chunk(long m, long lanes, long flags, const double *c,
                   const double *du, const double *w, const double *xi,
                   const double *eta, const long *snap_at,
                   double *x, double *sum_x, double *regret,
                   double *steps, double *offsets,
                   double *snap_sum, double *snap_regret)
{
    const double sigma = c[3], slope = c[4], lo = c[5], hi = c[6], f_star = c[7];
    for (long i = 0; i < lanes; i++) {
        double xv = x[i], s = sum_x[i], r = regret[i];
        for (long j = 0; j < m; j++) {
            const long k = j * lanes + i;
            double g, y, loss;
            if (!(flags & TWO_POINT)) {
                const double yp = xv + du[k], fy = quad(c, yp);
                g = (fy + xi[k]) * w[k];
                y = (flags & EVAL_POINT) ? yp : xv;
                loss = (flags & EVAL_POINT) ? fy : quad(c, xv);
            } else {
                const double yp = xv + du[2 * k], ym = xv + du[2 * k + 1];
                const double fp = quad(c, yp), fm = quad(c, ym);
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
                    loss = 0.5 * (quad(c, y) + quad(c, 2.0 * xv - y));
            }
            if (flags & REGRET)
                r += loss - f_star;
            const double step = ((flags & LANE_ETA) ? eta[k] : eta[j]) * g;
            steps[k] = step;
            offsets[k] = y - xv;
            double v = xv - step;
            if (v < lo)
                v = lo;
            if (v > hi)
                v = hi;
            xv = v;
            s += xv;
            if (snap_at[i] == j + 1) {
                snap_sum[i] = s;
                snap_regret[i] = r;
            }
        }
        x[i] = xv;
        sum_x[i] = s;
        regret[i] = r;
    }
}
