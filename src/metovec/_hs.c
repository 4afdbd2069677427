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
 * The two entry points are built twice, as an AVX2 clone and a baseline
 * clone, and the dynamic loader picks one when the library loads (an ELF
 * ifunc, resolved from the running CPU).  So one cached library is valid
 * on any CPU of its machine name, and the cache key needs no CPU flag.
 * hs_step is always inlined, so each clone holds its own copy of it: out
 * of line, it is built once, for the baseline, and both clones call that
 * copy.  The clones give the same bits: with -ffp-contract=off and no
 * fast-math the compiler neither fuses nor reorders an operation, the four
 * lanes s0..s3 map lane for lane onto one 4-double vector, the other loops
 * are elementwise, and both clones call the same exp and log.  CLONES is
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

/* one prediction of the word whose path is [lo, hi): updates the nodes,
 * sets grad to the gradient wrt hidden and counts the prediction, its node
 * updates and its loss */
static inline __attribute__((always_inline))
void hs_step(const int32_t *path_nodes, const double *targets, int64_t lo,
             int64_t hi, double *nodes, const double *hidden, double *grad,
             int64_t dim, double lr, int64_t *counts, double *out)
{
    double prob = 1.0;
    int64_t lanes_end = dim - dim % 4;
    memset(grad, 0, dim * sizeof(double));
    for (int64_t j = lo; j < hi; j++) {
        double *node = nodes + path_nodes[j] * dim;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int64_t k = 0; k < lanes_end; k += 4) {
            s0 += node[k] * hidden[k];
            s1 += node[k + 1] * hidden[k + 1];
            s2 += node[k + 2] * hidden[k + 2];
            s3 += node[k + 3] * hidden[k + 3];
        }
        for (int64_t k = lanes_end; k < dim; k++)
            s0 += node[k] * hidden[k];
        double s = (s0 + s1) + (s2 + s3);
        if (s < -CLAMP) s = -CLAMP;
        if (s > CLAMP) s = CLAMP;
        double e = exp(-s);
        double p = 1.0 / (1.0 + e);
        double residual = p - targets[j];
        prob *= targets[j] == 0.0 ? e / (1.0 + e) : p;
        double g = lr * residual;
        for (int64_t k = 0; k < dim; k++) {
            grad[k] += residual * node[k];
            node[k] -= g * hidden[k];
        }
    }
    counts[2]++;
    counts[3] += hi - lo;
    out[1] -= log(prob);
}

/* trains position f of the sentence ids[first, end) with up to window words
 * each side; work holds 2 * dim doubles.  Returns 0 when f is skipped. */
CLONES
int hs_example(const int32_t *ids, int64_t first, int64_t end, int64_t f,
               const int64_t *path_starts, const int32_t *path_nodes,
               const double *targets, double *inputs, double *nodes,
               double *work, int64_t dim, int64_t window, int32_t cbow,
               double lr, int64_t *counts, double *out)
{
    double *hidden = work, *grad = work + dim;
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
                nodes, hidden, grad, dim, lr, counts, out);
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
                nodes, focus, grad, dim, lr, counts, out);
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
