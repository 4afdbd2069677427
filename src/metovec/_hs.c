/* The hierarchical-softmax training step, CBOW or Skip-gram: hs_example
 * trains one focus position (train_example_*), hs_epoch every token of an
 * epoch (train).  Per node, hidden . node is summed in four interleaved
 * lanes: for k < dim - dim % 4 lane k % 4 gains node[k] * hidden[k], each
 * lane in ascending k, the tail terms go to lane 0, and the score is
 * (s0 + s1) + (s2 + s3), clamped to +-6.  The residual is
 * 1 / (1 + exp(-score)) - target, the gradient wrt hidden gains
 * residual * node, then the node row gets -(lr * residual) * hidden.  Built
 * with -ffp-contract=off, so no multiply is fused into an add; python_train
 * in tests/test_embeddings.py matches it bit for bit.  counts[0..3] gain
 * examples, skipped, predictions and node updates; out[1] gains the loss
 * -log p of every prediction, one log per prediction: p is the product of
 * the path's node probabilities, 1 / (1 + e) for target 1 and e / (1 + e)
 * for target 0, with e = exp(-score).  The clamp keeps each factor at or
 * above 1 / (1 + e^6) ~ 2.5e-3, so p stays a normal double, at or above
 * ~1e-305, on paths of up to 117 nodes.  A Huffman path of d nodes needs
 * counts summing to at least F(d + 2), the Fibonacci number: int64
 * Fibonacci counts give paths of 91 nodes, and 118 nodes need a total
 * count of F(120) ~ 5.4e24, over 5.8e5 words at the int64 limit.
 *
 * A prediction makes three passes over its path.  The first scores four
 * nodes per pass over hidden, one 4-double vector per node, so four dot
 * products run side by side, not each waiting on the last.  The second
 * turns the scores into residuals and the loss, in path order.  The third
 * updates four nodes per pass over k: grad[k] gains each node's term in
 * path order, each before its node's element moves.  These give the bits
 * of one node at a time, score then update: a path visits each node once
 * and hidden is not written during the step (Skip-gram moves its focus row
 * after the step, CBOW's hidden is in work), so every score reads the
 * values it read then, and every element's sums keep their order.  work
 * holds hidden, grad and one residual per node of the longest path.
 *
 * The two entry points are built twice, as an AVX2 clone and a baseline
 * clone, and the dynamic loader picks one when the library loads (an ELF
 * ifunc, resolved from the running CPU).  So one cached library is valid
 * on any CPU of its machine name, and the cache key needs no CPU flag.
 * hs_step is always inlined, so each clone holds its own copy of it: out
 * of line, it is built once, for the baseline, and both clones call that
 * copy.  The clones give the same bits: with -ffp-contract=off and no
 * fast-math the compiler neither fuses nor reorders an operation, v4
 * arithmetic is elementwise, whether one AVX2 register or two SSE2 halves
 * hold it, and both clones call the same exp and log.  A v4 is never an
 * argument or return value, as its ABI differs between the clones (GCC's
 * -Wpsabi): it moves through memory with LOAD and STORE.  CLONES is
 * empty where ifunc is not known to work (not x86-64, not glibc, or a
 * compiler without target_clones) and with -DMETOVEC_NO_CLONES, which the
 * tests use to build the baseline step alone. */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define CLAMP 6.0

#if defined(__has_attribute) && defined(__x86_64__) && defined(__GLIBC__) \
    && !defined(METOVEC_NO_CLONES)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

typedef double v4 __attribute__((vector_size(32)));
#define LOAD(v, p) memcpy(&(v), (p), sizeof(v4))
#define STORE(p, v) memcpy((p), &(v), sizeof(v4))

static inline double fold(double s0, double s1, double s2, double s3)
{
    return (s0 + s1) + (s2 + s3);
}

/* one prediction of the word whose path is [lo, hi): updates the nodes,
 * sets grad to the gradient wrt hidden and counts the prediction, its node
 * updates and its loss; residuals holds hi - lo doubles */
static inline __attribute__((always_inline))
void hs_step(const int32_t *path_nodes, const double *targets, int64_t lo,
             int64_t hi, double *nodes, const double *hidden, double *grad,
             double *residuals, int64_t dim, double lr, int64_t *counts,
             double *out)
{
    const int32_t *path = path_nodes + lo;
    int64_t n = hi - lo, lanes_end = dim - dim % 4;
    /* scores; a last group of fewer than four nodes repeats its last */
    for (int64_t j = 0; j < n; j += 4) {
        const double *n0 = nodes + path[j] * dim;
        const double *n1 = nodes + path[j + 1 < n ? j + 1 : n - 1] * dim;
        const double *n2 = nodes + path[j + 2 < n ? j + 2 : n - 1] * dim;
        const double *n3 = nodes + path[j + 3 < n ? j + 3 : n - 1] * dim;
        v4 a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0}, h, x0, x1, x2, x3;
        for (int64_t k = 0; k < lanes_end; k += 4) {
            LOAD(h, hidden + k);
            LOAD(x0, n0 + k);
            LOAD(x1, n1 + k);
            LOAD(x2, n2 + k);
            LOAD(x3, n3 + k);
            a0 += x0 * h;
            a1 += x1 * h;
            a2 += x2 * h;
            a3 += x3 * h;
        }
        for (int64_t k = lanes_end; k < dim; k++) {
            a0[0] += n0[k] * hidden[k];
            a1[0] += n1[k] * hidden[k];
            a2[0] += n2[k] * hidden[k];
            a3[0] += n3[k] * hidden[k];
        }
        double s[4] = {fold(a0[0], a0[1], a0[2], a0[3]),
                       fold(a1[0], a1[1], a1[2], a1[3]),
                       fold(a2[0], a2[1], a2[2], a2[3]),
                       fold(a3[0], a3[1], a3[2], a3[3])};
        for (int64_t i = 0; i < 4 && j + i < n; i++)
            residuals[j + i] = s[i];
    }
    /* residuals and the loss */
    double prob = 1.0;
    for (int64_t j = 0; j < n; j++) {
        double s = residuals[j], target = targets[lo + j];
        if (s < -CLAMP) s = -CLAMP;
        if (s > CLAMP) s = CLAMP;
        double e = exp(-s);
        double p = 1.0 / (1.0 + e);
        residuals[j] = p - target;
        prob *= target == 0.0 ? e / (1.0 + e) : p;
    }
    /* updates, four nodes at a time, then one at a time */
    memset(grad, 0, dim * sizeof(double));
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        double *n0 = nodes + path[j] * dim;
        double *n1 = nodes + path[j + 1] * dim;
        double *n2 = nodes + path[j + 2] * dim;
        double *n3 = nodes + path[j + 3] * dim;
        double r0 = residuals[j], r1 = residuals[j + 1];
        double r2 = residuals[j + 2], r3 = residuals[j + 3];
        double g0 = lr * r0, g1 = lr * r1, g2 = lr * r2, g3 = lr * r3;
        int64_t k = 0;
        for (; k < lanes_end; k += 4) {
            v4 g, h, x0, x1, x2, x3;
            LOAD(g, grad + k);
            LOAD(h, hidden + k);
            LOAD(x0, n0 + k);
            LOAD(x1, n1 + k);
            LOAD(x2, n2 + k);
            LOAD(x3, n3 + k);
            g += r0 * x0;
            g += r1 * x1;
            g += r2 * x2;
            g += r3 * x3;
            x0 -= g0 * h;
            x1 -= g1 * h;
            x2 -= g2 * h;
            x3 -= g3 * h;
            STORE(grad + k, g);
            STORE(n0 + k, x0);
            STORE(n1 + k, x1);
            STORE(n2 + k, x2);
            STORE(n3 + k, x3);
        }
        for (; k < dim; k++) {
            grad[k] += r0 * n0[k];
            n0[k] -= g0 * hidden[k];
            grad[k] += r1 * n1[k];
            n1[k] -= g1 * hidden[k];
            grad[k] += r2 * n2[k];
            n2[k] -= g2 * hidden[k];
            grad[k] += r3 * n3[k];
            n3[k] -= g3 * hidden[k];
        }
    }
    for (; j < n; j++) {
        double *node = nodes + path[j] * dim;
        double residual = residuals[j], g = lr * residual;
        for (int64_t k = 0; k < dim; k++) {
            grad[k] += residual * node[k];
            node[k] -= g * hidden[k];
        }
    }
    counts[2]++;
    counts[3] += n;
    out[1] -= log(prob);
}

/* trains position f of the sentence ids[first, end) with up to window words
 * each side; work holds 2 * dim doubles plus one for each node of the
 * tree's longest path.  Returns 0 when f is skipped. */
CLONES
int hs_example(const int32_t *ids, int64_t first, int64_t end, int64_t f,
               const int64_t *path_starts, const int32_t *path_nodes,
               const double *targets, double *inputs, double *nodes,
               double *work, int64_t dim, int64_t window, int32_t cbow,
               double lr, int64_t *counts, double *out)
{
    double *hidden = work, *grad = work + dim, *residuals = work + 2 * dim;
    int64_t lo = f - window > first ? f - window : first;
    int64_t hi = f + window + 1 < end ? f + window + 1 : end;
    int64_t n_context = hi - lo - 1;
    if (n_context == 0) {
        counts[1]++;
        return 0;
    }
    counts[0]++;
    if (cbow) {
        int64_t w = ids[f];
        memset(hidden, 0, dim * sizeof(double));
        for (int64_t c = lo; c < hi; c++)
            if (c != f)
                for (int64_t k = 0; k < dim; k++)
                    hidden[k] += inputs[ids[c] * dim + k];
        for (int64_t k = 0; k < dim; k++)
            hidden[k] /= n_context;
        hs_step(path_nodes, targets, path_starts[w], path_starts[w + 1],
                nodes, hidden, grad, residuals, dim, lr, counts, out);
        for (int64_t k = 0; k < dim; k++)
            grad[k] = lr * grad[k] / n_context;
        for (int64_t c = lo; c < hi; c++)
            if (c != f)
                for (int64_t k = 0; k < dim; k++)
                    inputs[ids[c] * dim + k] -= grad[k];
        return 1;
    }
    double *focus = inputs + ids[f] * dim;
    for (int64_t c = lo; c < hi; c++) {
        if (c == f)
            continue;
        int64_t w = ids[c];
        hs_step(path_nodes, targets, path_starts[w], path_starts[w + 1],
                nodes, focus, grad, residuals, dim, lr, counts, out);
        for (int64_t k = 0; k < dim; k++)
            focus[k] -= lr * grad[k];
    }
    return 1;
}

/* one epoch, from token seen, over the sentences ids[starts[s], starts[s+1]);
 * lr falls linearly from lr_start at token 0 to lr_end at token total */
CLONES
void hs_epoch(const int32_t *ids, const int64_t *starts, int64_t n_sentences,
              const int64_t *path_starts, const int32_t *path_nodes,
              const double *targets, double *inputs, double *nodes,
              double *work, int64_t dim, int64_t window, int32_t cbow,
              double lr_start, double lr_end, int64_t seen, int64_t total,
              int64_t *counts, double *out)
{
    double lr = lr_start;
    for (int64_t s = 0; s < n_sentences; s++)
        for (int64_t f = starts[s]; f < starts[s + 1]; f++, seen++) {
            lr = lr_start - (lr_start - lr_end) * ((double)seen / total);
            hs_example(ids, starts[s], starts[s + 1], f, path_starts,
                       path_nodes, targets, inputs, nodes, work, dim, window,
                       cbow, lr, counts, out);
        }
    out[0] = lr;
}
